package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"sp2bench/internal/core"
	"sp2bench/internal/gen"
	"sp2bench/internal/snapshot"
	"sp2bench/internal/store"
)

// setupTimes is one set-up's breakdown; total is what setup_s reports.
type setupTimes struct {
	gen, write, read, split, ready, total time.Duration
	triples                               int64 // emitted by the generator
	endYear                               int   // the document's last simulated year
}

// snapshotPath is where a set-up writes the document snapshot.
func snapshotPath(c *config) string {
	return filepath.Join(c.work, fmt.Sprintf("doc-%d-seed%d.sp2b", docTriples, c.genSeed))
}

// buildDocument generates the document, writes it as a snapshot and
// opens the snapshot again: the set-up every workload starts with.
func buildDocument(c *config) (*store.Store, setupTimes, error) {
	var t setupTimes
	t0 := time.Now()
	p := gen.DefaultParams(docTriples)
	p.Seed = c.genSeed
	gst, gs, err := core.GenerateStore(p)
	if err != nil {
		return nil, t, fmt.Errorf("generate: %w", err)
	}
	t.gen = time.Since(t0)
	t.triples, t.endYear = gs.Triples, gs.EndYear

	t1 := time.Now()
	if err := snapshot.WriteFile(snapshotPath(c), gst); err != nil {
		return nil, t, fmt.Errorf("write snapshot: %w", err)
	}
	t.write = time.Since(t1)
	gst = nil

	t2 := time.Now()
	st, err := snapshot.ReadFile(snapshotPath(c))
	if err != nil {
		return nil, t, fmt.Errorf("read snapshot: %w", err)
	}
	st.Freeze()
	t.read = time.Since(t2)
	t.total = time.Since(t0)
	return st, t, nil
}

// releaseMemory drops garbage between set-ups so each starts from the
// same heap, and the peak resident size reflects one live document.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// setupSummary reports the median of each set-up phase across set-ups.
func setupSummary(r *result, ts []setupTimes) {
	pick := func(f func(setupTimes) time.Duration) float64 {
		xs := make([]float64, len(ts))
		for i, t := range ts {
			xs[i] = f(t).Seconds()
		}
		return median(xs)
	}
	total := pick(func(t setupTimes) time.Duration { return t.total })
	r.set("setup_s", "s", total)
	genS := pick(func(t setupTimes) time.Duration { return t.gen })
	r.set("gen.triples_per_s", "1/s", float64(ts[0].triples)/genS)
	r.set("snapshot.write_s", "s", pick(func(t setupTimes) time.Duration { return t.write }))
	r.set("snapshot.read_s", "s", pick(func(t setupTimes) time.Duration { return t.read }))
	r.set("shard.split_s", "s", pick(func(t setupTimes) time.Duration { return t.split }))
	r.set("server.ready_s", "s", pick(func(t setupTimes) time.Duration { return t.ready }))
	all := make([]float64, len(ts))
	for i, t := range ts {
		all[i] = t.total.Seconds()
	}
	r.detail["setup_s_each"] = all
}

// peakRSSMB reads a process's peak resident set size (VmHWM) from /proc.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// resetPeakRSS restarts a process's peak resident size (VmHWM) from its
// current size, so the peak reported afterwards covers the measured
// window and not the transient of loading.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}
