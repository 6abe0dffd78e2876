// Package engine evaluates SPARQL queries over a store.Store using a
// Volcano-style (pull iterator) executor, which gives ASK queries and
// LIMIT clauses early termination for free — behaviour the paper calls out
// as missing in the engines it benchmarks (Q12a discussion).
//
// One executor serves both engine families the paper compares:
//
//   - Mem (ARQ / Sesame-memory stand-in): triple patterns are matched by
//     scanning the full triple slice, patterns evaluate in query order, and
//     filters run where the query wrote them.
//   - Native (Sesame-DB / Virtuoso stand-in): patterns use the store's
//     SPO/POS/OSP indexes, BGPs are reordered by estimated selectivity,
//     filter conjuncts are pushed to the earliest step that binds their
//     variables, and uncorrelated OPTIONAL right-hand sides are hash-joined.
//
// Every optimization is an independent Options flag so the benchmark
// harness can run ablations.
package engine

import (
	"context"
	"errors"
	"fmt"

	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// Options selects the access paths and optimizations of an engine
// configuration.
type Options struct {
	// Name labels the configuration in reports ("mem", "native", ...).
	Name string
	// UseIndexes matches triple patterns with index range lookups instead
	// of full scans.
	UseIndexes bool
	// ReorderPatterns reorders BGP triple patterns by estimated
	// selectivity before evaluation.
	ReorderPatterns bool
	// PushFilters splits filters into conjuncts and evaluates each at the
	// earliest pattern that binds its variables.
	PushFilters bool
	// HashLeftJoins materializes uncorrelated OPTIONAL right sides once
	// and, when the join condition contains var=var equalities across the
	// two sides, probes them by hash instead of scanning.
	HashLeftJoins bool
	// HashJoins enables the physical-operator layer's hash joins inside
	// BGPs: a join step whose estimated input exceeds a threshold builds a
	// hash table on the smaller estimated side — the step's matching
	// triples, or a disconnected trailing block linked by an equality
	// filter (the Q5a shape) — instead of probing the index per row.
	HashJoins bool
	// MergeJoins evaluates a join step by merging two index ranges
	// co-sorted on the shared variable (the RDF-3X fast path over the
	// store's SPO/POS/OSP permutations).
	MergeJoins bool
	// Vectorized routes covered SELECT queries through the
	// batch-at-a-time executor (vec.go): columnar Batch slabs of
	// dictionary IDs instead of tuple-at-a-time iterators, with
	// per-query fallback to the tuple path for uncovered forms.
	Vectorized bool
	// BatchSize overrides the vectorized executor's batch row capacity;
	// 0 means DefaultBatchSize. Tests use tiny sizes to stress batch
	// boundaries.
	BatchSize int
}

// Mem returns the in-memory engine configuration (the paper's
// ARQ/Sesame-memory family): correct but unoptimized.
func Mem() Options { return Options{Name: "mem"} }

// Native returns the native engine configuration (the paper's
// Sesame-DB/Virtuoso family): all optimizations on.
func Native() Options {
	return Options{
		Name:            "native",
		UseIndexes:      true,
		ReorderPatterns: true,
		PushFilters:     true,
		HashLeftJoins:   true,
		HashJoins:       true,
		MergeJoins:      true,
	}
}

// NativeVec returns the native configuration with the vectorized
// batch executor on top: covered queries run batch-at-a-time, the rest
// keep the full tuple-path optimizations.
func NativeVec() Options {
	o := Native()
	o.Name = "native-vec"
	o.Vectorized = true
	return o
}

// Engine evaluates queries over one immutable triple source: a frozen
// store, or any other store.Reader (an mvcc.Snapshot pins one dataset
// version, which is how queries stay consistent while writers ingest).
type Engine struct {
	src  store.Reader
	st   *store.Store // set when the source is a plain store (Store())
	opts Options
}

// New returns an engine over st. The store must be frozen before queries
// run when UseIndexes is set; New freezes it defensively.
//
// sp2b:locks=write the defensive Freeze writes the store: callers passing a
// shared store must hold its write lock or own it outright (MVCC
// deployments instead hand each engine an immutable NewReader snapshot)
func New(st *store.Store, opts Options) *Engine {
	st.Freeze()
	return &Engine{src: st, st: st, opts: opts}
}

// NewReader returns an engine over any read-only triple source. The
// source must be immutable for the engine's lifetime; construction is
// allocation-only, so per-request engines over per-request snapshots
// are cheap.
func NewReader(src store.Reader, opts Options) *Engine {
	return &Engine{src: src, opts: opts}
}

// Store returns the underlying store when the engine was built over a
// plain *store.Store with New, and nil for other sources.
func (e *Engine) Store() *store.Store { return e.st }

// Source returns the triple source the engine evaluates against.
func (e *Engine) Source() store.Reader { return e.src }

// Options returns the engine configuration.
func (e *Engine) Options() Options { return e.opts }

// Result is the materialized outcome of a query.
type Result struct {
	// Form distinguishes SELECT from ASK results.
	Form sparql.Form
	// Vars is the projection, in SELECT order.
	Vars []string
	// Rows holds one term slice per solution, aligned with Vars. Unbound
	// variables are zero Terms.
	Rows [][]rdf.Term
	// Ask is the ASK verdict (Form == FormAsk only).
	Ask bool
}

// Len returns the number of solutions (0 or 1 for ASK).
func (r *Result) Len() int {
	if r.Form == sparql.FormAsk {
		if r.Ask {
			return 1
		}
		return 0
	}
	return len(r.Rows)
}

// ErrCancelled wraps context cancellation/timeouts discovered mid-query.
var ErrCancelled = errors.New("query cancelled")

// Query runs q to completion and materializes the result. ASK queries stop
// at the first solution. Aggregate queries are dispatched to Aggregate;
// CONSTRUCT and DESCRIBE queries return graphs, not bindings, and must go
// through Construct/Describe (or Eval).
func (e *Engine) Query(ctx context.Context, q *sparql.Query) (*Result, error) {
	if q.Form == sparql.FormConstruct || q.Form == sparql.FormDescribe {
		return nil, fmt.Errorf("engine: %v queries return graphs; use Eval", q.Form)
	}
	if q.IsAggregate() {
		return e.Aggregate(ctx, q)
	}
	c, err := e.compile(ctx, q)
	if err != nil {
		return nil, err
	}
	defer c.close()
	if q.Form == sparql.FormAsk {
		c.root.open(c.emptyRow())
		_, ok, err := c.root.next()
		if err != nil {
			return nil, err
		}
		return &Result{Form: sparql.FormAsk, Ask: ok}, nil
	}
	res := &Result{Form: sparql.FormSelect, Vars: c.projection}
	if c.vec != nil {
		// Batch path: materialize terms column-wise per batch.
		c.vec.open()
		for {
			b, err := c.vec.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				return res, nil
			}
			for r := 0; r < b.Len(); r++ {
				out := make([]rdf.Term, len(c.projSlots))
				for i, slot := range c.projSlots {
					if slot >= 0 {
						if id := b.Col(slot)[r]; id != store.NoID {
							out[i] = e.src.TermDict().Term(id)
						}
					}
				}
				res.Rows = append(res.Rows, out)
			}
		}
	}
	c.root.open(c.emptyRow())
	for {
		row, ok, err := c.root.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return res, nil
		}
		out := make([]rdf.Term, len(c.projSlots))
		for i, slot := range c.projSlots {
			if slot >= 0 && row[slot] != store.NoID {
				out[i] = e.src.TermDict().Term(row[slot])
			}
		}
		res.Rows = append(res.Rows, out)
	}
}

// Count runs q and returns only the number of solutions, without
// materializing terms. The benchmark harness uses it to reproduce the
// paper's result-size table without the memory cost of materialization.
func (e *Engine) Count(ctx context.Context, q *sparql.Query) (int, error) {
	if q.Form == sparql.FormConstruct || q.Form == sparql.FormDescribe {
		_, g, err := e.Eval(ctx, q)
		return len(g), err
	}
	if q.IsAggregate() {
		r, err := e.Aggregate(ctx, q)
		if err != nil {
			return 0, err
		}
		return r.Len(), nil
	}
	c, err := e.compile(ctx, q)
	if err != nil {
		return 0, err
	}
	defer c.close()
	if c.vec != nil {
		// Batch path (SELECT only): sum batch row counts, no
		// materialization at all — not even per-row iterator calls.
		c.vec.open()
		n := 0
		for {
			b, err := c.vec.next()
			if err != nil {
				return n, err
			}
			if b == nil {
				return n, nil
			}
			n += b.Len()
		}
	}
	c.root.open(c.emptyRow())
	n := 0
	for {
		_, ok, err := c.root.next()
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		n++
		if q.Form == sparql.FormAsk {
			return 1, nil
		}
	}
}

// CountAnalyze runs Count with EXPLAIN ANALYZE tracing enabled and
// returns the count together with the execution trace.
func (e *Engine) CountAnalyze(ctx context.Context, q *sparql.Query) (int, *Trace, error) {
	ctx, h := WithAnalyze(ctx)
	n, err := e.Count(ctx, q)
	return n, h.Trace(), err
}

// QueryAnalyze runs Query with EXPLAIN ANALYZE tracing enabled and
// returns the result together with the execution trace. For forms that
// evaluate a core SELECT internally (aggregates) the trace covers the
// core pattern evaluation.
func (e *Engine) QueryAnalyze(ctx context.Context, q *sparql.Query) (*Result, *Trace, error) {
	ctx, h := WithAnalyze(ctx)
	res, err := e.Query(ctx, q)
	return res, h.Trace(), err
}

// Explain returns a description of the physical plan chosen for q,
// including any BGP reordering — used by the ablation experiments and by
// tests pinning optimizer behaviour.
func (e *Engine) Explain(q *sparql.Query) (string, error) {
	c, err := e.compile(context.Background(), q)
	if err != nil {
		return "", err
	}
	return c.explain(), nil
}

// ParseAndQuery parses src with the standard SP2Bench prefixes and runs it.
func (e *Engine) ParseAndQuery(ctx context.Context, src string) (*Result, error) {
	q, err := sparql.Parse(src, rdf.Prefixes)
	if err != nil {
		return nil, err
	}
	return e.Query(ctx, q)
}

func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrCancelled, err)
	}
	return nil
}
