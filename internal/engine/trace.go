package engine

// EXPLAIN ANALYZE: an opt-in trace collector wrapped around the Volcano
// iterator protocol. When a query runs under WithAnalyze, every logical
// operator is wrapped in a traceIter recording actual rows out and
// inclusive wall time, and BGP plans carry per-step counters (actual
// rows per join depth, hash/segment build sizes) next to the planner's
// cumulative cardinality estimates — so est-vs-actual misestimation
// ratios fall straight out of one execution.
//
// When tracing is off the executor pays one context value lookup per
// query and one nil check per emitted BGP row; nothing is wrapped and
// nothing is timed. The committed overhead measurement lives in
// docs/ARCHITECTURE.md ("Observability").

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"sp2bench/internal/store"
)

// Trace is the materialized execution trace of one query: an operator
// tree mirroring the physical plan, with actual row counts, inclusive
// wall time, and (where the planner produced one) cumulative
// cardinality estimates.
type Trace struct {
	// Root is the outermost operator; Root.Rows equals the query's
	// solution count.
	Root *TraceNode `json:"root"`
	// WallNS is the inclusive wall time of the root operator.
	WallNS int64 `json:"wall_ns"`
	// Rows is the number of solutions the root produced.
	Rows int64 `json:"rows"`
}

// TraceNode is one operator of the trace tree.
type TraceNode struct {
	// Op names the operator: bgp, join, leftjoin, union, filter,
	// distinct, order, slice.
	Op string `json:"op"`
	// Detail carries operator-specific plan notes.
	Detail string `json:"detail,omitempty"`
	// EstRows is the planner's cardinality estimate for the operator's
	// output (0 = the planner produced none).
	EstRows float64 `json:"est_rows,omitempty"`
	// Rows is the number of rows the operator actually produced.
	Rows int64 `json:"rows"`
	// Batches is the number of batches a vectorized operator emitted
	// (0 = tuple-at-a-time operator).
	Batches int64 `json:"batches,omitempty"`
	// BuildRows is the number of rows a materializing operator (the
	// vectorized keyed block join) built.
	BuildRows int64 `json:"build_rows,omitempty"`
	// WallNS is inclusive wall time (children included).
	WallNS int64 `json:"wall_ns"`
	// Steps is the per-depth breakdown of a BGP operator.
	Steps []TraceStep `json:"steps,omitempty"`
	// Children are the operator's inputs.
	Children []*TraceNode `json:"children,omitempty"`
}

// TraceStep is one depth of a BGP operator: the physical join operator
// chosen, the pattern it evaluates, the planner's cumulative estimate
// of rows flowing out of this depth, the rows that actually did, and
// the build-side size for hash operators.
type TraceStep struct {
	Op        string  `json:"op"`
	Pattern   string  `json:"pattern,omitempty"`
	EstRows   float64 `json:"est_rows,omitempty"`
	Rows      int64   `json:"rows"`
	Batches   int64   `json:"batches,omitempty"`
	BuildRows int64   `json:"build_rows,omitempty"`
}

// TraceHandle is returned by WithAnalyze; after the query run under the
// returned context completes, Trace returns the collected trace.
type TraceHandle struct{ t *Trace }

// Trace returns the collected trace, or nil if no traced query has
// completed under the handle's context yet.
func (h *TraceHandle) Trace() *Trace { return h.t }

type traceCtxKey struct{}

// WithAnalyze returns a context that asks the engine to collect an
// execution trace for queries evaluated under it, and the handle the
// trace is delivered through. Forms that evaluate a core SELECT
// internally (aggregates, CONSTRUCT, DESCRIBE) deliver the core
// pattern's trace.
func WithAnalyze(ctx context.Context) (context.Context, *TraceHandle) {
	h := &TraceHandle{}
	return context.WithValue(ctx, traceCtxKey{}, h), h
}

func traceHandleFrom(ctx context.Context) *TraceHandle {
	h, _ := ctx.Value(traceCtxKey{}).(*TraceHandle)
	return h
}

// tnode is the mutable collector behind a TraceNode. Every counter is
// written on the query's goroutine. The counters are atomics because
// atomic.Int64 is marked no-copy: go vet rejects copying a live node or
// step, which would silently split its counts.
type tnode struct {
	op       string
	detail   string
	est      float64
	rows     atomic.Int64
	batches  atomic.Int64
	build    atomic.Int64
	wall     atomic.Int64
	steps    []*tstep
	children []*tnode
}

// tstep is the mutable collector behind a TraceStep.
type tstep struct {
	op      string
	pattern string
	est     float64
	rows    atomic.Int64
	batches atomic.Int64
	build   atomic.Int64
}

// traceCollector is the per-compile trace state.
type traceCollector struct {
	handle *TraceHandle
	root   *tnode
}

// traceIter wraps a subplan, counting rows out and inclusive wall time.
type traceIter struct {
	inner subplan
	n     *tnode
}

func (t *traceIter) open(parent []store.ID) {
	start := time.Now()
	t.inner.open(parent)
	t.n.wall.Add(time.Since(start).Nanoseconds())
}

func (t *traceIter) next() ([]store.ID, bool, error) {
	start := time.Now()
	row, ok, err := t.inner.next()
	t.n.wall.Add(time.Since(start).Nanoseconds())
	if ok {
		t.n.rows.Add(1)
	}
	return row, ok, err
}

// wrap builds the trace node for a freshly built subplan and returns
// the wrapped iterator. Children were wrapped during recursion, so
// their nodes are recovered from the subplan's inputs.
func (tc *traceCollector) wrap(sp subplan) subplan {
	n := &tnode{}
	switch s := sp.(type) {
	case *bgpIter:
		n.op = "bgp"
		n.detail = "nested-loop"
		n.steps = s.tsteps
		n.est = s.test
	case *physIter:
		n.op = "bgp"
		n.steps = s.plan.tsteps
		n.est = s.plan.test
	case *joinIter:
		n.op = "join"
		n.children = childNodes(s.left, s.right)
	case *leftJoinIter:
		n.op = "leftjoin"
		if s.materializeRight {
			n.detail = fmt.Sprintf("materialized right (hash key: %v)", s.hashLeftSlot >= 0)
		}
		n.children = childNodes(s.left, s.right)
	case *unionIter:
		n.op = "union"
		n.children = childNodes(s.left, s.right)
	case *filterIter:
		n.op = "filter"
		n.children = childNodes(s.input)
	case *distinctIter:
		n.op = "distinct"
		n.children = childNodes(s.input)
	case *orderIter:
		n.op = "order"
		n.children = childNodes(s.input)
	case *sliceIter:
		n.op = "slice"
		n.children = childNodes(s.input)
	default:
		n.op = fmt.Sprintf("%T", sp)
	}
	tc.root = n // build is depth-first; the last wrap is the root
	return &traceIter{inner: sp, n: n}
}

// vecTraced wraps a vec operator, counting batches, rows, and
// inclusive wall time onto its trace node.
type vecTraced struct {
	inner vecOp
	n     *tnode
}

func (t *vecTraced) open() {
	start := time.Now()
	t.inner.open()
	t.n.wall.Add(time.Since(start).Nanoseconds())
}

func (t *vecTraced) next() (*Batch, error) {
	start := time.Now()
	b, err := t.inner.next()
	t.n.wall.Add(time.Since(start).Nanoseconds())
	if b != nil {
		t.n.batches.Add(1)
		t.n.rows.Add(int64(b.Len()))
	}
	return b, err
}

// childNodes recovers the trace nodes of already-wrapped child
// subplans.
func childNodes(children ...subplan) []*tnode {
	var out []*tnode
	for _, c := range children {
		if t, ok := c.(*traceIter); ok {
			out = append(out, t.n)
		}
	}
	return out
}

// snapshot converts the collector tree into the immutable Trace.
func (tc *traceCollector) snapshot() *Trace {
	if tc.root == nil {
		return nil
	}
	root := snapshotNode(tc.root)
	return &Trace{Root: root, WallNS: root.WallNS, Rows: root.Rows}
}

func snapshotNode(n *tnode) *TraceNode {
	out := &TraceNode{
		Op:        n.op,
		Detail:    n.detail,
		EstRows:   n.est,
		Rows:      n.rows.Load(),
		Batches:   n.batches.Load(),
		BuildRows: n.build.Load(),
		WallNS:    n.wall.Load(),
	}
	for _, s := range n.steps {
		out.Steps = append(out.Steps, TraceStep{
			Op:        s.op,
			Pattern:   s.pattern,
			EstRows:   s.est,
			Rows:      s.rows.Load(),
			Batches:   s.batches.Load(),
			BuildRows: s.build.Load(),
		})
	}
	for _, c := range n.children {
		out.Children = append(out.Children, snapshotNode(c))
	}
	return out
}

// deliver snapshots the collected trace into the handle; the compiled
// query calls it from close, so every evaluation entry point delivers
// without special-casing.
func (tc *traceCollector) deliver() {
	if tc.handle != nil {
		tc.handle.t = tc.snapshot()
	}
}

// CardinalityError walks every operator and step carrying both an
// estimate and an actual row count and returns the worst and the
// geometric-mean misestimation ratio (max(est/actual, actual/est),
// actuals clamped to 1 so empty results stay finite). Zero values mean
// no operator carried an estimate.
func (t *Trace) CardinalityError() (maxRatio, geoMean float64) {
	var logSum float64
	var n int
	var walk func(nd *TraceNode)
	ratio := func(est float64, rows int64) {
		if est <= 0 {
			return
		}
		actual := math.Max(1, float64(rows))
		r := est / actual
		if r < 1 {
			r = 1 / r
		}
		if r > maxRatio {
			maxRatio = r
		}
		logSum += math.Log(r)
		n++
	}
	walk = func(nd *TraceNode) {
		ratio(nd.EstRows, nd.Rows)
		for _, s := range nd.Steps {
			ratio(s.EstRows, s.Rows)
		}
		for _, c := range nd.Children {
			walk(c)
		}
	}
	if t.Root != nil {
		walk(t.Root)
	}
	if n == 0 {
		return 0, 0
	}
	return maxRatio, math.Exp(logSum / float64(n))
}

// Render writes the trace as an indented operator tree, one line per
// operator with actual vs estimated rows and inclusive wall time,
// followed by the per-step breakdown of BGP operators.
func (t *Trace) Render(w io.Writer) {
	if t == nil || t.Root == nil {
		fmt.Fprintln(w, "no trace collected")
		return
	}
	var render func(n *TraceNode, depth int)
	render = func(n *TraceNode, depth int) {
		indent := strings.Repeat("  ", depth)
		fmt.Fprintf(w, "%s%s", indent, n.Op)
		if n.Detail != "" {
			fmt.Fprintf(w, " (%s)", n.Detail)
		}
		fmt.Fprintf(w, "  rows=%d", n.Rows)
		if n.EstRows > 0 {
			fmt.Fprintf(w, " est=%.0f", n.EstRows)
		}
		if n.Batches > 0 {
			fmt.Fprintf(w, " batches=%d", n.Batches)
		}
		if n.BuildRows > 0 {
			fmt.Fprintf(w, " build=%d", n.BuildRows)
		}
		fmt.Fprintf(w, " wall=%v", time.Duration(n.WallNS).Round(time.Microsecond))
		fmt.Fprintln(w)
		for i, s := range n.Steps {
			fmt.Fprintf(w, "%s  step %d: %s", indent, i, s.Op)
			if s.Pattern != "" {
				fmt.Fprintf(w, " %s", s.Pattern)
			}
			fmt.Fprintf(w, "  rows=%d", s.Rows)
			if s.EstRows > 0 {
				fmt.Fprintf(w, " est=%.0f", s.EstRows)
			}
			if s.Batches > 0 {
				fmt.Fprintf(w, " batches=%d", s.Batches)
			}
			if s.BuildRows > 0 {
				fmt.Fprintf(w, " build=%d", s.BuildRows)
			}
			fmt.Fprintln(w)
		}
		for _, c := range n.Children {
			render(c, depth+1)
		}
	}
	render(t.Root, 0)
	if maxR, geo := t.CardinalityError(); maxR > 0 {
		fmt.Fprintf(w, "cardinality error: max=%.2fx geomean=%.2fx\n", maxR, geo)
	}
}

// String renders the trace to a string (the -analyze flag's output).
func (t *Trace) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}
