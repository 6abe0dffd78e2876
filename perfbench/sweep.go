package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sp2bench/internal/engine"
	"sp2bench/internal/obs"
	"sp2bench/internal/queries"
	"sp2bench/internal/rdf"
	"sp2bench/internal/shard"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// repTarget is how long one pass spends on each fast query: a query
// taking t runs ceil(repTarget/t) times per pass (at most maxReps),
// timed as one group, so a pass holds one sample per query and fast
// queries are not timed a microsecond at a time.
const (
	repTarget = 50 * time.Millisecond
	maxReps   = 200
)

// minPasses is the fewest complete passes a sweep run makes, so every
// query has at least that many samples even when one pass (about 7 s
// unsharded and 10 s over four shards on a 2-core VM, most of it Q4)
// takes longer than a third of the window.
const minPasses = 3

// docPrint identifies a document by counts that do not depend on the
// order IDs were assigned in: its triples, its terms, and the triples
// of a few common predicates. A changed generator changes at least one.
type docPrint struct {
	Triples, Terms int
	PerPredicate   [6]int
}

func fingerprint(st *store.Store) docPrint {
	p := docPrint{Triples: st.Len(), Terms: st.Dict().Len()}
	for i, iri := range []string{
		"http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
		"http://purl.org/dc/elements/1.1/creator",
		"http://purl.org/dc/elements/1.1/title",
		"http://purl.org/dc/terms/issued",
		"http://purl.org/dc/terms/references",
		"http://xmlns.com/foaf/0.1/name",
	} {
		if id, ok := st.Dict().Lookup(rdf.IRI(iri)); ok {
			p.PerPredicate[i] = st.PredCardinality(id)
		}
	}
	return p
}

// knownDoc is the fingerprint of the default document (generator seed
// 1, 1M triples).
var knownDoc = docPrint{1000005, 441110, [6]int{135442, 171119, 92650, 92650, 633, 42159}}

// knownCounts are the unsharded native-vec result sizes of the 17
// queries on knownDoc.
var knownCounts = map[string]int{
	"q1": 1, "q2": 38188, "q3a": 50725, "q3b": 395, "q3c": 0, "q4": 2788963,
	"q5a": 12793, "q5b": 12793, "q6": 48460, "q7": 267, "q8": 3251, "q9": 4,
	"q10": 653, "q11": 10, "q12a": 1, "q12b": 1, "q12c": 0,
}

// runSweep runs the §VI protocol: all 17 queries, sequentially, through
// Engine.Count over the frozen 1M store, or over an in-process shard
// set when shards > 0. Parsing happens outside the timed region.
func runSweep(c *config, r *result, shards int) error {
	t0 := time.Now()
	phases := map[string]float64{}
	r.detail["phases_s"] = phases
	phase := func(name string) { phases[name] = time.Since(t0).Seconds() }
	all := queries.All()
	parsed := make([]*sparql.Query, len(all))
	for i, q := range all {
		parsed[i] = q.Parse()
	}

	var (
		st  *store.Store
		set *shard.Set
		ts  []setupTimes
	)
	for i := 0; i < setups; i++ {
		st, set = nil, nil
		releaseMemory()
		s, t, err := buildDocument(c)
		if err != nil {
			return err
		}
		if shards > 0 {
			t0 := time.Now()
			set, _, err = shard.Split(s, shards)
			if err != nil {
				return fmt.Errorf("split: %w", err)
			}
			t.split = time.Since(t0)
			t.total += t.split
		}
		st = s
		ts = append(ts, t)
	}
	os.Remove(snapshotPath(c))
	setupSummary(r, ts)
	phase("setup")

	// The oracle: unsharded native-vec counts. For the default document
	// they were taken at set-up once and are recorded in knownCounts; any
	// other document (another generator seed, or a changed generator)
	// gets an unsharded pass at set-up.
	opts := engine.NativeVec()
	plain := engine.New(st, opts)
	ctx := context.Background()
	oracle := make([]int, len(all))
	fp := fingerprint(st)
	known := fp == knownDoc
	r.detail["oracle"] = map[string]any{"recorded": known, "fingerprint": fp}
	for i, q := range parsed {
		if known {
			oracle[i] = knownCounts[all[i].ID]
			continue
		}
		n, err := plain.Count(ctx, q)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", all[i].ID, err)
		}
		oracle[i] = n
	}

	engineFor := func() *engine.Engine { return plain }
	var unsharded []string // unsharded plans, for the traced run
	if shards > 0 {
		if c.trace {
			for _, q := range parsed {
				p, err := plain.Explain(q)
				if err != nil {
					return err
				}
				unsharded = append(unsharded, p)
			}
		}
		// The sharded program holds the shard set alone, so the
		// unsharded store goes before the peak resident size restarts.
		// A fresh Reader per execution: its gather cache then serves
		// one query, and no pass inherits another's gathered runs.
		st, plain = nil, nil
		engineFor = func() *engine.Engine { return engine.NewReader(set.Reader(), opts) }
	}
	phase("oracle")
	releaseMemory()
	phase("release")
	if err := resetPeakRSS("self"); err != nil {
		r.note("peak RSS includes set-up: %v", err)
	}

	// exec runs query i k times and returns the CPU and elapsed time
	// per execution, in ms. CPU time is this process's, all threads
	// (the engine's parallel scans, scatter goroutines, the garbage
	// collector); it leaves out time the hypervisor gave other guests.
	exec := func(i, k int) (float64, float64) {
		c0, w0 := selfCPU(), time.Now()
		for j := 0; j < k; j++ {
			n, err := engineFor().Count(ctx, parsed[i])
			r.Attempted++
			if err != nil || n != oracle[i] {
				r.Failed++
				r.fail("%s: count %d (err %v), oracle %d", all[i].ID, n, err, oracle[i])
			}
		}
		return ms(selfCPU()-c0) / float64(k), ms(time.Since(w0)) / float64(k)
	}

	// Measured passes: complete passes until the window has passed, and
	// at least minPasses of them. Each pass visits the queries in an
	// order drawn from the seed.
	rng := rand.New(rand.NewSource(int64(c.seed)))
	cpuS := make([][]float64, len(all))
	wallS := make([][]float64, len(all))
	reps := make([]int, len(all))
	var gcTime time.Duration
	window := time.Duration(c.seconds * float64(time.Second))
	begin := time.Now()
	passes := 0
	for ; passes < minPasses || time.Since(begin) < window; passes++ {
		for _, i := range rng.Perm(len(all)) {
			// Each query starts from a collected heap, so one query's
			// garbage does not tax the next and the peak resident size
			// does not depend on the order.
			g0 := time.Now()
			runtime.GC()
			gcTime += time.Since(g0)
			if reps[i] == 0 {
				// The first execution sizes the repetitions. When the
				// query is repeated it is a warm-up, not a sample.
				cpu, wall := exec(i, 1)
				reps[i] = int(min(maxReps, math.Ceil(ms(repTarget)/max(wall, 1e-3))))
				if reps[i] == 1 {
					cpuS[i], wallS[i] = append(cpuS[i], cpu), append(wallS[i], wall)
					continue
				}
			}
			cpu, wall := exec(i, reps[i])
			cpuS[i], wallS[i] = append(cpuS[i], cpu), append(wallS[i], wall)
		}
	}

	cpuQ := make([]float64, len(all))
	wallQ := make([]float64, len(all))
	var within []float64
	for i, q := range all {
		cpuQ[i], wallQ[i] = median(cpuS[i]), median(wallS[i])
		if cpuQ[i] <= 0 {
			return fmt.Errorf("%s: measured no CPU time", q.ID)
		}
		within = append(within, iqrShare(cpuS[i]))
		r.set("engine."+q.ID+"_ms", "ms", cpuQ[i])
	}
	r.set("geomean_cpu_ms", "ms", geomean(cpuQ))
	r.set("arith_cpu_ms", "ms", mean(cpuQ))
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", "MB", rss)
	r.detail["runs"] = fmt.Sprintf("%d complete passes, %d executions", passes, r.Attempted)
	r.detail["spread"] = median(within)
	phase("measure")
	r.detail["gc_between_queries_s"] = gcTime.Seconds()
	r.detail["passes"] = passes
	r.detail["reps_per_pass"] = reps
	r.detail["per_query_cpu_ms"] = cpuQ
	r.detail["samples_cpu_ms"] = cpuS
	r.detail["per_query_elapsed_ms"] = wallQ
	r.detail["elapsed"] = map[string]float64{"geomean_ms": geomean(wallQ), "arith_ms": mean(wallQ)}
	r.note("elapsed time per query: geometric mean %.3f ms, arithmetic mean %.3f ms (not gated)",
		geomean(wallQ), mean(wallQ))

	if !c.trace {
		return nil
	}
	return traceSweep(c, r, st, set, unsharded, parsed, all, oracle, wallQ)
}

// traceSweep is the traced run's extra pass: every query once through
// timing Readers, plus the plan-identity guard and the layer
// microbenchmarks. Over shards st is nil and unsharded holds the
// unsharded plans; untraced holds the elapsed time per query.
func traceSweep(c *config, r *result, st *store.Store, set *shard.Set, unsharded []string,
	parsed []*sparql.Query, all []queries.Query, oracle []int, untraced []float64) error {
	opts := engine.NativeVec()

	// Sources with and without timing; per-shard stores are timed as
	// the store layer beneath the shard layer.
	var bare, timed func(*tracer) store.Reader
	if set != nil {
		bare = func(*tracer) store.Reader { return set.Reader() }
		timed = func(tr *tracer) store.Reader {
			srcs := make([]shard.Source, set.Shards())
			for i := range srcs {
				srcs[i] = newTimedReader(set.Shard(i), tr, "store")
			}
			return newTimedReader(shard.NewReader(set.Partitioner(), set.Dict(), srcs), tr, "shard")
		}
	} else {
		bare = func(*tracer) store.Reader { return st }
		timed = func(tr *tracer) store.Reader { return newTimedReader(st, tr, "store") }
	}

	mismatches, diffs := 0, 0
	for i, q := range parsed {
		a, err := engine.NewReader(bare(nil), opts).Explain(q)
		if err != nil {
			return err
		}
		b, err := engine.NewReader(timed(newTracer(0)), opts).Explain(q)
		if err != nil {
			return err
		}
		if a != b {
			mismatches++
			r.note("plan differs under the timing reader: %s", all[i].ID)
		}
		if set != nil {
			if stripScatter(unsharded[i]) != stripScatter(a) {
				diffs++
				r.note("sharded plan differs from the unsharded plan: %s", all[i].ID)
			}
		}
	}
	r.set("trace.plan_mismatches", "count", float64(mismatches))
	r.set("shard.plan_diffs", "count", float64(diffs))
	if mismatches > 0 {
		r.note("per-layer numbers describe a different plan than the timed runs")
	}

	tr := newTracer(spanLimit)
	scatters0 := promValue(inProcessMetrics(), "sp2b_shard_scatter_total", "")
	ctx := context.Background()
	var tracedSum, untracedSum float64
	for i, q := range parsed {
		eng := engine.NewReader(timed(tr), opts)
		runtime.GC()
		op := tr.begin("op")
		ex := tr.begin("engine.exec")
		n, err := eng.Count(ctx, q)
		d := tr.end(ex)
		tr.end(op)
		r.Attempted++
		if err != nil || n != oracle[i] {
			r.Failed++
			r.fail("traced %s: count %d (err %v), oracle %d", all[i].ID, n, err, oracle[i])
		}
		tracedSum += ms(d)
		untracedSum += untraced[i]
	}
	scatters := promValue(inProcessMetrics(), "sp2b_shard_scatter_total", "") - scatters0

	sr, rr := tr.stat("shard.RangeIn"), tr.stat("store.RangeIn")
	r.set("shard.rangein_ms", "ms", float64(sr.TotalNS)/1e6)
	r.set("shard.rows_returned", "count", float64(sr.Rows))
	r.set("shard.scatters", "count", scatters)
	r.set("store.rangein_ms", "ms", float64(rr.TotalNS)/1e6)
	r.set("store.rangein_calls", "count", float64(rr.Calls))
	r.set("store.rows_returned", "count", float64(rr.Rows))
	self := tr.layerSelf()
	r.set("engine.self_ms", "ms", ms(self["engine"]))
	r.set("trace.coverage", "share", tr.coverage())
	r.set("trace.overhead", "share", tracedSum/untracedSum-1)
	r.note("traced pass %.1f ms vs untraced %.1f ms; layer self time: %s",
		tracedSum, untracedSum, selfTable(self, time.Duration(tracedSum*1e6)))

	var stores []*store.Store
	if set != nil {
		for i := 0; i < set.Shards(); i++ {
			stores = append(stores, set.Shard(i))
		}
	} else {
		stores = []*store.Store{st}
	}
	r.set("store.decode_ns_per_row", "ns", decodeNsPerRow(stores))
	parseUS, planUS, err := parsePlanUS(engine.NewReader(bare(nil), opts), all)
	if err != nil {
		return err
	}
	r.set("sparql.parse_us", "us", parseUS)
	r.set("engine.plan_us", "us", planUS)
	zero(r, "server.", "mvcc.", "results.", "loadgen.", "trace.gap_", "engine.materialize_us_per_row")
	r.detail["trace"] = tr.summary()
	return tr.writeSpans(spansPath(c))
}

func spansPath(c *config) string {
	return filepath.Join(c.work, "reports", fmt.Sprintf("%s-seed%d.spans.jsonl", c.workload, c.seed))
}

// rangeSizes matches EXPLAIN's range-size annotations, which differ
// behind a shard.Reader (a gathered run is sized per shard) even when
// the operators are the same.
var rangeSizes = regexp.MustCompile(`\b(rows|build)=\d+`)

// stripScatter drops the scatter annotations EXPLAIN adds behind a
// sharded source, and blanks range sizes, leaving the plan's operators,
// join order and index orders.
func stripScatter(plan string) string {
	var keep []string
	for _, line := range strings.Split(plan, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "scatter:") {
			continue
		}
		keep = append(keep, rangeSizes.ReplaceAllString(line, "$1=N"))
	}
	return strings.Join(keep, "\n")
}

// decodeNsPerRow times IndexRange.CopyColumns over the full SPO, POS
// and OSP ranges of the given stores, in batches of 1024 rows.
func decodeNsPerRow(stores []*store.Store) float64 {
	const batch = 1024
	s, p, o := make([]store.ID, batch), make([]store.ID, batch), make([]store.ID, batch)
	var best float64
	for round := 0; round < 3; round++ {
		rows := 0
		t0 := time.Now()
		for _, st := range stores {
			for _, ord := range []store.Order{store.OrderSPO, store.OrderPOS, store.OrderOSP} {
				ir := st.RangeIn(ord, store.NoID, store.NoID, store.NoID)
				for start := 0; start < len(ir.Rows); {
					w, used := ir.CopyColumns(start, batch, s, p, o)
					rows += w
					start += used
				}
			}
		}
		ns := float64(time.Since(t0).Nanoseconds()) / float64(max(rows, 1))
		if round == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// parsePlanUS returns the mean sparql.Parse and Engine.Explain times
// over the given queries, each repeated enough to be timed reliably.
func parsePlanUS(eng *engine.Engine, qs []queries.Query) (float64, float64, error) {
	const rounds = 20
	var parse, plan time.Duration
	for _, q := range qs {
		for k := 0; k < rounds; k++ {
			t0 := time.Now()
			pq, err := sparql.Parse(q.Text, rdf.Prefixes)
			parse += time.Since(t0)
			if err != nil {
				return 0, 0, err
			}
			t1 := time.Now()
			if _, err := eng.Explain(pq); err != nil {
				return 0, 0, err
			}
			plan += time.Since(t1)
		}
	}
	n := float64(rounds * len(qs))
	return float64(parse.Microseconds()) / n, float64(plan.Microseconds()) / n, nil
}

// zero reports every per-layer metric under the given prefixes that the
// workload does not exercise as 0.
func zero(r *result, prefixes ...string) {
	for _, m := range perLayer {
		if _, ok := r.Metrics[m.name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(m.name, p) {
				r.set(m.name, m.unit, 0)
			}
		}
	}
}

// inProcessMetrics renders this process's metric registry.
func inProcessMetrics() string {
	var b bytes.Buffer
	obs.Default.WritePrometheus(&b)
	return b.String()
}

// promValue sums the samples of one metric in a Prometheus text
// exposition whose label set contains labels (empty = any).
func promValue(text, name, labels string) float64 {
	total := 0.0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if labels != "" && !strings.Contains(rest, labels) {
			continue
		}
		f := strings.Fields(rest)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err == nil {
			total += v
		}
	}
	return total
}
