package engine_test

import (
	"context"
	"strings"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/queries"
	"sp2bench/internal/store"
)

// TestAnalyzeTraceConsistency runs the full 17-query sweep under
// EXPLAIN ANALYZE on both engine families and asserts the invariant
// the trace hangs on: the root operator's actual row count equals the
// query's result count, for every query, every time.
func TestAnalyzeTraceConsistency(t *testing.T) {
	// The in-memory engine is polynomial on several queries, so it
	// sweeps a smaller document (mirroring TestEnginesAgree).
	native, _ := generatedStore(t, 10_000)
	mem, _ := generatedStore(t, 2_000)
	ctx := context.Background()
	for _, tc := range []struct {
		opts engine.Options
		st   *store.Store
	}{{engine.Native(), native}, {engine.Mem(), mem}, {engine.NativeVec(), native}} {
		opts := tc.opts
		eng := engine.New(tc.st, opts)
		for _, q := range queries.All() {
			n, tr, err := eng.CountAnalyze(ctx, q.Parse())
			if err != nil {
				t.Fatalf("%s/%s: %v", opts.Name, q.ID, err)
			}
			if tr == nil || tr.Root == nil {
				t.Fatalf("%s/%s: no trace collected", opts.Name, q.ID)
			}
			if tr.Rows != int64(n) {
				t.Errorf("%s/%s: root rows %d != result count %d", opts.Name, q.ID, tr.Rows, n)
			}
			if tr.WallNS < 0 {
				t.Errorf("%s/%s: negative wall time %d", opts.Name, q.ID, tr.WallNS)
			}
		}
	}
}

// TestAnalyzeTraceVectorized pins the batch path's trace contract on
// queries the vec executor covers: the root is a vectorized operator
// tree whose row counts match the result count, and per-batch counters
// are populated (at least one batch whenever rows flowed).
func TestAnalyzeTraceVectorized(t *testing.T) {
	s, _ := generatedStore(t, 10_000)
	eng := engine.New(s, engine.NativeVec())
	ctx := context.Background()
	for _, id := range []string{"q1", "q2", "q4", "q5b", "q9"} {
		q, _ := queries.ByID(id)
		n, tr, err := eng.CountAnalyze(ctx, q.Parse())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if tr == nil || tr.Root == nil {
			t.Fatalf("%s: no trace collected", id)
		}
		if tr.Rows != int64(n) {
			t.Errorf("%s: root rows %d != result count %d", id, tr.Rows, n)
		}
		vectorized := false
		var block *engine.TraceNode
		var walk func(tn *engine.TraceNode)
		walk = func(tn *engine.TraceNode) {
			if tn.Detail == "vectorized" {
				vectorized = true
				if tn.Rows > 0 && tn.Batches == 0 {
					t.Errorf("%s: %s rows=%d but batches=0", id, tn.Op, tn.Rows)
				}
			}
			if tn.Op == "block" && block == nil {
				block = tn
			}
			for _, c := range tn.Children {
				walk(c)
			}
		}
		walk(tr.Root)
		if !vectorized {
			t.Errorf("%s: expected a vectorized trace, got op %q detail %q",
				id, tr.Root.Op, tr.Root.Detail)
		}
		// Q4's second article star is the keyed block join on ?journal:
		// its own node, which emitted batches and built the block.
		if id == "q4" {
			switch {
			case block == nil:
				t.Errorf("q4: no block node in the trace:\n%s", tr)
			case block.Detail != "vectorized key=?journal" || block.Batches == 0 || block.BuildRows == 0:
				t.Errorf("q4: block node %q batches=%d build=%d", block.Detail, block.Batches, block.BuildRows)
			}
		}
		if n > 0 && tr.Root.Batches == 0 {
			t.Errorf("%s: root emitted %d rows in 0 batches", id, n)
		}
	}
}

// TestAnalyzeTraceDetail pins the shape of a traced plan: Q2's native
// trace must carry per-step rows with planner estimates, and the text
// rendering must show actual-vs-estimated rows.
func TestAnalyzeTraceDetail(t *testing.T) {
	s, _ := generatedStore(t, 10_000)
	eng := engine.New(s, engine.Native())
	q, _ := queries.ByID("q2")
	res, tr, err := eng.QueryAnalyze(context.Background(), q.Parse())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rows != int64(res.Len()) {
		t.Errorf("trace rows %d != result len %d", tr.Rows, res.Len())
	}
	// Find the BGP node and check its steps carry estimates and actuals.
	var bgp *engine.TraceNode
	var walk func(n *engine.TraceNode)
	walk = func(n *engine.TraceNode) {
		if n.Op == "bgp" && bgp == nil {
			bgp = n
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tr.Root)
	if bgp == nil {
		t.Fatal("no bgp operator in trace")
	}
	if len(bgp.Steps) == 0 {
		t.Fatal("bgp operator has no step breakdown")
	}
	sawEst := false
	for _, st := range bgp.Steps {
		if st.EstRows > 0 {
			sawEst = true
		}
	}
	if !sawEst {
		t.Error("no step carries a planner estimate")
	}
	if bgp.Rows == 0 {
		t.Error("bgp produced no rows on q2 over a 10k document")
	}
	out := tr.String()
	for _, want := range []string{"rows=", "est=", "wall="} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered trace missing %q:\n%s", want, out)
		}
	}
	if maxR, geo := tr.CardinalityError(); maxR < 1 || geo < 1 {
		t.Errorf("cardinality error ratios must be >= 1, got max=%v geo=%v", maxR, geo)
	}
}

// TestAnalyzeOffCollectsNothing asserts the zero-overhead contract's
// observable half: without WithAnalyze no handle exists and queries
// carry no trace state (a smoke check that the default path stays on
// the untraced plan).
func TestAnalyzeOffCollectsNothing(t *testing.T) {
	s, _ := generatedStore(t, 2_000)
	eng := engine.New(s, engine.Native())
	q, _ := queries.ByID("q1")
	if _, err := eng.Count(context.Background(), q.Parse()); err != nil {
		t.Fatal(err)
	}
}
