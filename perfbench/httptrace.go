package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"sp2bench/internal/engine"
	"sp2bench/internal/mvcc"
	"sp2bench/internal/queries"
	"sp2bench/internal/rdf"
	"sp2bench/internal/results"
	"sp2bench/internal/server"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
	"sp2bench/internal/workload"
)

// rangeCall is one recorded RangeIn call, replayed to measure the
// allocation a read's range lookups cost.
type rangeCall struct {
	ord     store.Order
	s, p, o store.ID
}

// callLog records RangeIn calls made through a timing reader.
type callLog struct {
	mu    sync.Mutex
	calls []rangeCall
}

func (l *callLog) add(c rangeCall) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

func (l *callLog) take() []rangeCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.calls
	l.calls = nil
	return c
}

// The replay covers the first replayReads reads of the open-loop
// sequence, with an insert after every insertEvery of them. Inserts
// take the shape of the repository's update traffic
// (workload.UpdateBatches over gen.UpdateStream): one insert is one
// simulated year of the generator's continuation past the document,
// each year once. For the default 1M document (generator seed 1, last
// year 2000) the years 2001-2003 hold 127k, 143k and 159k triples,
// each at least the MVCC merge threshold max(4096, base/8), so every
// insert starts a background merge.
const (
	replayReads = 600
	insertYears = 3
	insertEvery = replayReads / (insertYears + 1)
)

// traceHTTP is the traced run's in-process replay of the start of the
// open-loop operation sequence. The server builds its engines internally, so the
// same reads run here through timing Readers over the same snapshot:
// first over the base store, as lookup-http's server reads it, then over
// an mvcc.Store that receives a new yearly insert batch after every
// insertEvery reads. The second replay measures the MVCC layer and
// splits the read-latency gap between the two by layer.
func traceHTTP(c *config, r *result, st *store.Store, kinds []opKind, seq []int, endYear int) error {
	opts := engine.NativeVec()
	ctx := context.Background()
	batches, err := workload.UpdateBatches(c.genSeed, endYear, insertYears)
	if err != nil {
		return fmt.Errorf("insert batches: %w", err)
	}
	// The base store stays readable: MVCC never mutates it.
	live := mvcc.New(st, mvcc.MergePolicy{})
	defer live.Close()
	merge0 := promValue(inProcessMetrics(), "sp2b_mvcc_merge_seconds_sum", "")

	trBase := newTracer(spanLimit) // reads over the base store
	trSnap := newTracer(spanLimit) // the same reads over MVCC snapshots
	log := &callLog{}
	// readOnce returns the solution count, the rows serialized (an ASK
	// verdict is one row) and the JSON bytes.
	readOnce := func(t *tracer, src store.Reader, lay string, k opKind, rec *callLog) (int, int, int64, error) {
		op := t.begin("op")
		ps := t.begin("sparql.parse")
		q, err := sparql.Parse(k.text, rdf.Prefixes)
		t.end(ps)
		if err != nil {
			return 0, 0, 0, err
		}
		tsrc := newTimedReader(src, t, lay)
		if rec != nil {
			tsrc.(*timedReader).log = rec
		}
		ex := t.begin("engine.exec")
		res, err := engine.NewReader(tsrc, opts).Query(ctx, q)
		t.end(ex)
		if err != nil {
			return 0, 0, 0, err
		}
		se := t.begin("results.json")
		var cw countWriter
		err = results.FromEngine(res).WriteJSON(&cw)
		t.end(se)
		t.end(op)
		return res.Len(), resultRows(res), cw.n, err
	}

	var (
		untraced, traced  time.Duration
		reads             int
		rows, jsonBytes   int64
		applyMS, handleMS []float64
		allocBytes        uint64
		nextBatch         int
	)
	for _, k := range seq[:min(len(seq), replayReads)] {
		kind := kinds[k]
		// The read untraced and traced over the base store, alternating
		// which goes first so neither always finds the caches warm.
		untracedRead := func() error {
			t0 := time.Now()
			err := plainRead(ctx, st, opts, kind.text)
			untraced += time.Since(t0)
			return err
		}
		if reads%2 == 0 {
			if err := untracedRead(); err != nil {
				return err
			}
		}
		t1 := time.Now()
		n, nr, nb, err := readOnce(trBase, st, "store", kind, nil)
		traced += time.Since(t1)
		if reads%2 == 1 {
			if err := untracedRead(); err != nil {
				return err
			}
		}
		r.Attempted++
		if err != nil || n != kind.expect {
			r.Failed++
			r.fail("replay %s: %d solutions (err %v), want %d", kind.id, n, err, kind.expect)
		}
		rows += int64(nr)
		jsonBytes += nb

		// The same read over a snapshot of base plus delta: inserts may
		// add solutions, never remove them.
		sn := live.Snapshot()
		n, _, _, err = readOnce(trSnap, sn, "mvcc", kind, log)
		r.Attempted++
		if err != nil || n < kind.expect {
			r.Failed++
			r.fail("replay %s over MVCC: %d solutions (err %v), want at least %d", kind.id, n, err, kind.expect)
		}
		allocBytes += allocOf(sn, log.take())
		sn.Close()
		reads++

		if reads%insertEvery != 0 || nextBatch == len(batches) {
			continue
		}
		r.Attempted++
		batch := batches[nextBatch]
		nextBatch++
		// Alternate batches go through the server's /update handler
		// (its service time) and straight to Apply (the commit alone).
		// Every triple of a batch is new, so all must be inserted.
		viaHandler := nextBatch%2 == 0
		n, d, err := replayInsert(live, batch, viaHandler)
		if err != nil || n != len(batch) {
			r.Failed++
			r.fail("replay insert: %d of %d inserted (err %v)", n, len(batch), err)
			continue
		}
		if viaHandler {
			handleMS = append(handleMS, ms(d))
		} else {
			applyMS = append(applyMS, ms(d))
		}
	}
	if reads == 0 {
		return fmt.Errorf("replay ran no reads")
	}
	perRead := func(v float64) float64 { return v / float64(reads) }

	sr := trBase.stat("store.RangeIn")
	r.set("store.rangein_ms", "ms", perRead(float64(sr.TotalNS)/1e6))
	r.set("store.rangein_calls", "count", perRead(float64(sr.Calls)))
	r.set("store.rows_returned", "count", perRead(float64(sr.Rows)))
	r.set("store.decode_ns_per_row", "ns", decodeNsPerRow([]*store.Store{st}))
	js := trBase.stat("results.json")
	r.set("results.json_us_per_row", "us", float64(js.TotalNS)/1e3/float64(max(rows, 1)))
	r.set("results.json_bytes_per_row", "B", float64(jsonBytes)/float64(max(rows, 1)))
	self := trBase.layerSelf()
	r.set("engine.self_ms", "ms", perRead(ms(self["engine"])))
	r.set("trace.coverage", "share", trBase.coverage())
	r.set("trace.overhead", "share", float64(traced)/float64(untraced)-1)
	r.note("replay of %d reads over the base store: traced %.1f ms vs untraced %.1f ms; layer self time: %s",
		reads, ms(traced), ms(untraced), selfTable(self, traced))

	mr := trSnap.stat("mvcc.RangeIn")
	live.Close() // waits for a merge still running
	stats := live.Stats()
	r.set("mvcc.rangein_ms", "ms", perRead(float64(mr.TotalNS)/1e6))
	r.set("mvcc.rangein_alloc_kb", "kB", perRead(float64(allocBytes)/1024))
	r.set("mvcc.apply_ms", "ms", mean(applyMS))
	r.set("server.update_service_ms", "ms", mean(handleMS))
	r.set("mvcc.merges", "count", float64(stats.Merges))
	r.set("mvcc.merge_s", "s", promValue(inProcessMetrics(), "sp2b_mvcc_merge_seconds_sum", "")-merge0)
	r.set("mvcc.delta_triples", "count", float64(stats.DeltaTriples))
	sizes := make([]int, nextBatch)
	for i := range sizes {
		sizes[i] = len(batches[i])
	}
	r.note("MVCC replay: inserts of %v triples (years %d-%d), delta %d triples at the end, %d merges (threshold max(4096, base/8))",
		sizes, endYear+1, endYear+nextBatch, stats.DeltaTriples, stats.Merges)
	gapLayerReport(r, trSnap, trBase, reads)

	if err := engineNumbers(r, st, "store", kinds); err != nil {
		return err
	}
	zero(r, "shard.", "engine.q")
	r.detail["trace"] = trBase.summary()
	r.detail["trace_mvcc"] = trSnap.summary()
	if err := trSnap.writeSpans(strings.TrimSuffix(spansPath(c), ".jsonl") + ".mvcc.jsonl"); err != nil {
		return err
	}
	return trBase.writeSpans(spansPath(c))
}

// gapLayerReport splits the per-read latency gap between reads over the
// MVCC snapshot and the same reads over the base store by layer, and
// names the layer with the largest share.
func gapLayerReport(r *result, snap, base *tracer, reads int) {
	norm := func(m map[string]time.Duration) map[string]time.Duration {
		out := map[string]time.Duration{}
		for k, v := range m {
			if k == "mvcc" || k == "store" {
				k = "storage"
			}
			out[k] += v
		}
		return out
	}
	a, b := norm(snap.layerSelf()), norm(base.layerSelf())
	total := time.Duration(snap.stat("op").TotalNS - base.stat("op").TotalNS)
	type kv struct {
		k string
		v time.Duration
	}
	var gaps []kv
	for k := range a {
		gaps = append(gaps, kv{k, a[k] - b[k]})
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i].v > gaps[j].v })
	top := gaps[0]
	name := top.k
	if name == "storage" {
		name = "mvcc"
		// Name the snapshot call that grew most.
		best, bestD := "", int64(0)
		for _, call := range []string{"RangeIn", "Count", "stats", "Triples", "Iterate"} {
			d := snap.stat("mvcc."+call).TotalNS - base.stat("store."+call).TotalNS
			if d > bestD {
				best, bestD = call, d
			}
		}
		if best != "" {
			name += " (Snapshot." + best + ")"
		}
	}
	share := 0.0
	if total > 0 {
		share = float64(top.v) / float64(total)
	}
	r.set("trace.gap_ms", "ms", ms(total)/float64(reads))
	r.set("trace.gap_top_share", "share", share)
	r.note("read-latency gap to the base store: %.3f ms per read; %s accounts for %.0f%% of it",
		ms(total)/float64(reads), name, 100*share)
	r.detail["gap_layer"] = name
}

// replayInsert applies one batch to the in-process MVCC store, either
// through the server's own /update handler as an N-Triples body
// (handler = true: the server's update service time) or by calling
// Apply directly (the MVCC commit alone). It returns the inserted count
// and the timed duration.
func replayInsert(live *mvcc.Store, batch []rdf.Triple, handler bool) (int, time.Duration, error) {
	if !handler {
		t0 := time.Now()
		n := live.Apply(batch)
		return n, time.Since(t0), nil
	}
	var body bytes.Buffer
	nw := rdf.NewWriter(&body)
	for _, t := range batch {
		if err := nw.WriteTriple(t); err != nil {
			return 0, 0, err
		}
	}
	if err := nw.Flush(); err != nil {
		return 0, 0, err
	}
	req := httptest.NewRequest(http.MethodPost, "/update", &body)
	req.Header.Set("Content-Type", "application/n-triples")
	rec := httptest.NewRecorder()
	h := server.UpdateHandler(live, nil)
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(t0)
	var ans struct {
		Inserted int `json:"inserted"`
	}
	if rec.Code != http.StatusOK {
		return 0, d, fmt.Errorf("update handler: HTTP %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
		return 0, d, err
	}
	return ans.Inserted, d, nil
}

// plainRead is one read as the server performs it, without tracing.
func plainRead(ctx context.Context, src store.Reader, opts engine.Options, text string) error {
	q, err := sparql.Parse(text, rdf.Prefixes)
	if err != nil {
		return err
	}
	res, err := engine.NewReader(src, opts).Query(ctx, q)
	if err != nil {
		return err
	}
	return results.FromEngine(res).WriteJSON(io.Discard)
}

// allocOf replays recorded RangeIn calls against src and returns the
// bytes they allocate.
func allocOf(src store.Reader, calls []rangeCall) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, c := range calls {
		src.RangeIn(c.ord, c.s, c.p, c.o)
	}
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// engineNumbers reports, for the read mix over src: per-query Count
// times, materialization cost per row (Query minus Count), parse and
// plan times, and whether the timing reader leaves every plan unchanged.
func engineNumbers(r *result, src store.Reader, layer string, kinds []opKind) error {
	opts := engine.NativeVec()
	ctx := context.Background()
	eng := engine.NewReader(src, opts)
	var matUS float64
	var matRows int
	mismatches := 0
	var mix []queries.Query
	for _, k := range kinds {
		q, _ := queries.ByID(k.id)
		mix = append(mix, q)
		pq := q.Parse()
		var counts, querys []float64
		var rows int
		for i := 0; i < 15; i++ {
			t0 := time.Now()
			if _, err := eng.Count(ctx, pq); err != nil {
				return err
			}
			t1 := time.Now()
			res, err := eng.Query(ctx, pq)
			if err != nil {
				return err
			}
			counts = append(counts, ms(t1.Sub(t0)))
			querys = append(querys, ms(time.Since(t1)))
			rows = resultRows(res)
		}
		r.set("engine."+k.id+"_ms", "ms", median(counts))
		// Best-of times: the difference of two noisy medians can be
		// negative for queries this fast.
		matUS += 1000 * (quantile(querys, 0) - quantile(counts, 0))
		matRows += rows
		a, err := eng.Explain(pq)
		if err != nil {
			return err
		}
		b, err := engine.NewReader(newTimedReader(src, newTracer(0), layer), opts).Explain(pq)
		if err != nil {
			return err
		}
		if a != b {
			mismatches++
			r.note("plan differs under the timing reader: %s", k.id)
		}
	}
	r.set("engine.materialize_us_per_row", "us", matUS/float64(max(matRows, 1)))
	r.set("trace.plan_mismatches", "count", float64(mismatches))
	if mismatches > 0 {
		r.note("per-layer numbers describe a different plan than the timed runs")
	}
	parseUS, planUS, err := parsePlanUS(eng, mix)
	if err != nil {
		return err
	}
	r.set("sparql.parse_us", "us", parseUS)
	r.set("engine.plan_us", "us", planUS)
	return nil
}

// resultRows counts solutions, an ASK verdict as one row.
func resultRows(res *engine.Result) int {
	if res.Form == sparql.FormAsk {
		return 1
	}
	return len(res.Rows)
}

// countWriter counts bytes written to it.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
