// Command perfbench is the repository's end-to-end benchmark: the paper's
// §VI query sweep at 1M triples (single store and four in-process
// shards) and served point-lookup traffic against sp2bserve. Every
// operation's result is checked, and a traced run breaks the end-to-end
// numbers down layer by layer, including the MVCC store under inserts.
// perfbench/README.md describes the workloads and metrics;
// perfbench/run.sh builds and runs it from the repository root:
//
//	bash perfbench/run.sh --workload sweep-1m --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// config is the parsed command line.
type config struct {
	workload string
	seed     uint64 // workload seed: query order, arrivals, op order
	genSeed  uint64 // generator seed: the 1M document
	seconds  float64
	trace    bool
	root     string // repository root (holds go.mod and cmd/)
	serve    string // sp2bserve binary
	work     string // scratch directory for snapshots and reports
}

const (
	docTriples = 1_000_000 // every workload's document size
	setups     = 3         // set-ups per run; setup_s is their median
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports: the summary line plus the
// detail written to the run's JSON report file.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	detail map[string]any
	notes  []string
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}, detail: map[string]any{}}
}

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{v, unit} }

// fail records a failed check; it does not stop the run.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	msg := fmt.Sprintf(format, args...)
	r.notes = append(r.notes, "FAIL: "+msg)
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// endToEnd lists the metrics an untraced run reports, in BENCHMARK.json
// order; every workload reports all of them. The two means are taken
// over per-operation CPU times, which exclude the time a virtual
// machine's hypervisor runs other guests on its cores; elapsed-time
// latencies are printed and written to the report but not gated,
// because on a shared 2-core VM they move with that steal time.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"geomean_cpu_ms", "ms"},
	{"arith_cpu_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var workloads = map[string]func(*config, *result) error{
	"sweep-1m":        func(c *config, r *result) error { return runSweep(c, r, 0) },
	"sweep-1m-shard4": func(c *config, r *result) error { return runSweep(c, r, 4) },
	"lookup-http":     runHTTP,
}

func main() {
	var c config
	var traceN int
	flag.StringVar(&c.workload, "workload", "", "sweep-1m, sweep-1m-shard4 or lookup-http")
	flag.Uint64Var(&c.seed, "seed", 1, "workload seed: sweep query order, arrival times, operation order, insert order of the traced replay")
	flag.Uint64Var(&c.genSeed, "gen-seed", 1, "generator seed for the document (1 is the default document; use 2 for hold-out checks)")
	flag.Float64Var(&c.seconds, "seconds", 10, "measured window per run, in seconds")
	flag.IntVar(&traceN, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&c.root, "root", ".", "repository root")
	flag.StringVar(&c.serve, "serve", "", "sp2bserve binary (HTTP workloads)")
	flag.StringVar(&c.work, "work", ".bench_build/work", "directory for snapshots and reports")
	flag.Parse()
	c.trace = traceN == 1

	run, ok := workloads[c.workload]
	if !ok || c.seconds <= 0 || (traceN != 0 && traceN != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of sweep-1m, sweep-1m-shard4, lookup-http), --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(filepath.Join(c.work, "reports"), 0o755); err != nil {
		fatal(err)
	}

	res := newResult()
	res.detail["env"] = environment(&c)
	start, steal0 := time.Now(), cpuSteal()
	if err := run(&c, res); err != nil {
		fatal(err)
	}
	res.detail["wall_s"] = time.Since(start).Seconds()
	steal := cpuSteal().sub(steal0)
	res.detail["cpu_steal_share"] = steal.share()
	if res.Attempted < 1 {
		fatal(fmt.Errorf("no operation was attempted"))
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	want := endToEnd
	if c.trace {
		want = perLayer
	}
	out := map[string]metric{}
	for _, m := range want {
		v, ok := res.Metrics[m.name]
		if !ok {
			fatal(fmt.Errorf("metric %s was not measured", m.name))
		}
		out[m.name] = v
	}
	writeReport(&c, res)
	printHuman(&c, res, want)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, out})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// environment records what a reader needs to compare two reports.
func environment(c *config) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(c.root),
		"workload":   c.workload,
		"seed":       c.seed,
		"gen_seed":   c.genSeed,
		"triples":    docTriples,
		"seconds":    c.seconds,
		"setups":     setups,
		"trace":      c.trace,
	}
}

// commit names the source revision when the checkout is a git work
// tree, and "unknown" otherwise.
func commit(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD")
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeReport(c *config, r *result) {
	doc := map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   r.Metrics,
		"notes":     r.notes,
	}
	for k, v := range r.detail {
		doc[k] = v
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: report:", err)
		return
	}
	path := filepath.Join(c.work, "reports", fmt.Sprintf("%s-seed%d-trace%d.json", c.workload, c.seed, btoi(c.trace)))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: report:", err)
		return
	}
	fmt.Fprintln(os.Stderr, "perfbench: report written to", path)
}

// printHuman prints the run's metrics, one per line with their units,
// ahead of the JSON summary line.
func printHuman(c *config, r *result, want []struct{ name, unit string }) {
	env := r.detail["env"].(map[string]any)
	fmt.Printf("# perfbench %s seed=%d gen-seed=%d trace=%v nproc=%v GOMAXPROCS=%v %v commit=%v\n",
		c.workload, c.seed, c.genSeed, c.trace, env["nproc"], env["gomaxprocs"], env["go"], env["commit"])
	for _, m := range want {
		fmt.Printf("%-34s %14.6g %s\n", m.name, r.Metrics[m.name].Value, m.unit)
	}
	errRate := float64(r.Failed) / float64(max(r.Attempted, 1))
	fmt.Printf("%-34s %14.6g (%d of %d operations failed)\n", "error_rate", errRate, r.Failed, r.Attempted)
	fmt.Printf("# %v; within-run spread (IQR/median) %.3f; CPU steal %.1f%%\n",
		r.detail["runs"], r.detail["spread"], 100*r.detail["cpu_steal_share"].(float64))
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	stopChildren()
	os.Exit(1)
}

// cpuTicks is the machine's CPU time split from /proc/stat.
type cpuTicks struct{ steal, total int64 }

// cpuSteal reads the CPU time the hypervisor gave to other guests; a
// run with a large steal share measured a noisier machine.
func cpuSteal() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t cpuTicks
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

func (a cpuTicks) sub(b cpuTicks) cpuTicks { return cpuTicks{a.steal - b.steal, a.total - b.total} }

func (a cpuTicks) share() float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.steal) / float64(a.total)
}
