package engine_test

// Tests for the physical-operator layer: golden operator-choice plans on
// a 50k generated document, result agreement across every operator
// configuration on all 17 benchmark queries, and race/leak coverage for
// concurrent and early-exiting queries.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"sp2bench/internal/engine"
	"sp2bench/internal/queries"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// operatorAblations enumerates the nested-loop-only reference plus every
// single-operator ablation and the full configuration.
func operatorAblations() []engine.Options {
	nlj := engine.Native()
	nlj.Name = "native-nlj"
	nlj.HashJoins, nlj.MergeJoins = false, false

	noHash := engine.Native()
	noHash.Name, noHash.HashJoins = "native-nohashjoin", false
	noMerge := engine.Native()
	noMerge.Name, noMerge.MergeJoins = "native-nomergejoin", false

	vec := engine.NativeVec()
	vecNoHash := engine.NativeVec()
	vecNoHash.Name, vecNoHash.HashJoins = "native-vec-nohashjoin", false
	vecNoMerge := engine.NativeVec()
	vecNoMerge.Name, vecNoMerge.MergeJoins = "native-vec-nomergejoin", false
	// A deliberately tiny batch forces every operator across batch
	// boundaries mid-run, the states most likely to hold stale cursors.
	vecTiny := engine.NativeVec()
	vecTiny.Name, vecTiny.BatchSize = "native-vec-batch3", 3

	return []engine.Options{nlj, engine.Native(), noHash, noMerge,
		vec, vecNoHash, vecNoMerge, vecTiny}
}

// TestGoldenPlans50k pins the reorder-plus-operator choices for the
// paper's join-heavy queries on a 50k document: Q2's nine-way merge-join
// star, Q4's hash-join chain, Q5a's block swap plus keyed hash segment,
// and Q8's tiny merge anchor. The exact row counts are deterministic:
// the generator is seeded and the counts are structural properties of
// the document.
func TestGoldenPlans50k(t *testing.T) {
	if testing.Short() {
		t.Skip("50k document generation in -short mode")
	}
	s, _ := generatedStore(t, 50_000)
	eng := engine.New(s, engine.Native())

	golden := map[string][]string{
		"q2": {
			"bgp operators: scan[POS rows=274 sorted=?inproc]" +
				strings.Repeat(" merge[?inproc SPO rows=50004]", 8),
		},
		"q4": {
			"bgp operators: scan[POS rows=2407 sorted=?name1] nl" +
				" hash[?article1 build=4241] hash[?article1 build=4239]" +
				" hash[?journal build=4239] hash[?article2 build=4241]" +
				" hash[?article2 build=6830] hash[?author2 build=2407]",
		},
		"q5a": {
			"bgp blocks swapped: probe est 6.83e+03 streams, build est 419 trails",
			"bgp operators: scan[POS rows=2407 sorted=?name] nl" +
				" hash[?article build=4241] hashseg[key=?name/?name2 steps=3]",
		},
		"q8": {
			"bgp operators: scan[POS rows=1 sorted=?erdoes] merge[?erdoes POS rows=2407]",
		},
	}
	for id, wants := range golden {
		q, ok := queries.ByID(id)
		if !ok {
			t.Fatalf("unknown query %s", id)
		}
		plan, err := eng.Explain(q.Parse())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, want := range wants {
			if !strings.Contains(plan, want) {
				t.Errorf("%s plan missing %q:\n%s", id, want, plan)
			}
		}
	}
}

// TestGoldenVecPlans50k pins the vectorized planner's keyed block join
// on the same 50k document: Q4's second article star meets the first on
// ?journal alone, so it is built once as a block (whose own pipeline
// again blocks the ?author2 star) instead of being re-derived for each
// of the 6.4k left rows. Q5b keeps its pipelined plan at this scale: its
// tail is estimated at 1.2k rows against a 6.8k-row block (the block
// is chosen at 1M, where the left side outgrows it); the pin catches the
// cost rule drifting either way.
func TestGoldenVecPlans50k(t *testing.T) {
	if testing.Short() {
		t.Skip("50k document generation in -short mode")
	}
	s, _ := generatedStore(t, 50_000)
	eng := engine.New(s, engine.NativeVec())

	golden := map[string][]string{
		"q4": {
			"vec operators: scan[POS rows=2407] nl hash[?article1 build=4241]" +
				" hash[?article1 build=4239] block[?journal rows=6478]",
			"vec block[?journal] operators: scan[POS rows=2407] block[?author2 rows=6830]",
		},
		"q5b": {
			"vec operators: scan[POS rows=274] merge[?inproc SPO rows=50004] nl nl nl",
		},
	}
	for id, wants := range golden {
		q, _ := queries.ByID(id)
		plan, err := eng.Explain(q.Parse())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, want := range wants {
			if !strings.Contains(plan, want) {
				t.Errorf("%s plan missing %q:\n%s", id, want, plan)
			}
		}
	}
}

// TestOperatorChoicesAgreeOn17Queries is the physical-layer soundness
// check: every operator configuration — nested-loop only, each operator
// disabled in turn, everything on, and the vectorized variants — returns
// exactly the same solutions for all 17 benchmark queries on a generated
// document.
func TestOperatorChoicesAgreeOn17Queries(t *testing.T) {
	size := int64(10_000)
	if testing.Short() {
		size = 5_000
	}
	s, _ := generatedStore(t, size)
	for _, q := range queries.All() {
		parsed := q.Parse()
		var ref []string
		var refName string
		for _, opts := range operatorAblations() {
			rows := renderEngine(t, s, opts, parsed)
			if ref == nil {
				ref, refName = rows, opts.Name
				continue
			}
			if strings.Join(rows, "\n") != strings.Join(ref, "\n") {
				t.Errorf("%s: %s returned %d rows, %s returned %d — operator choice changed the result",
					q.ID, opts.Name, len(rows), refName, len(ref))
			}
		}
	}
}

// TestConcurrentQueriesOneEngineRace runs the join-heavy queries from
// several goroutines over one shared engine under the race detector:
// everything a compiled query mutates must be private to it.
func TestConcurrentQueriesOneEngineRace(t *testing.T) {
	s, _ := generatedStore(t, 10_000)
	eng := engine.New(s, engine.Native())

	ids := []string{"q2", "q3a", "q4", "q5a", "q9"}
	want := map[string]int{}
	for _, id := range ids {
		q, _ := queries.ByID(id)
		n, err := eng.Count(context.Background(), q.Parse())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		want[id] = n
	}

	const clients = 4
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			for _, id := range ids {
				q, _ := queries.ByID(id)
				n, err := eng.Count(context.Background(), q.Parse())
				if err != nil {
					errs <- err
					return
				}
				if n != want[id] {
					errs <- fmt.Errorf("%s: got %d results, want %d", id, n, want[id])
					return
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelEarlyExitStopsWorkers: ASK and LIMIT abandon their
// operators after the first rows, under a background context that never
// cancels; the queries must leave no goroutine behind.
func TestParallelEarlyExitStopsWorkers(t *testing.T) {
	s, _ := generatedStore(t, 10_000)
	eng := engine.New(s, engine.Native())

	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		q, _ := queries.ByID("q12a") // ASK: stops at the first solution
		if _, err := eng.Query(context.Background(), q.Parse()); err != nil {
			t.Fatal(err)
		}
		lim := sparql.MustParse(
			`SELECT ?inproc WHERE { ?inproc rdf:type bench:Inproceedings . ?inproc dc:creator ?author } LIMIT 1`,
			rdf.Prefixes)
		if _, err := eng.Query(context.Background(), lim); err != nil {
			t.Fatal(err)
		}
	}
	// The tolerant loop only absorbs unrelated runtime goroutines
	// winding down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+4 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after early-exit queries",
				before, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestHashSegmentValueEquality: the hashed disconnected block must probe
// by the FILTER's value-equality semantics, not dictionary-ID identity —
// "1"^^xsd:integer and "01"^^xsd:integer are distinct terms but equal
// values, and every configuration must agree on the join result.
func TestHashSegmentValueEquality(t *testing.T) {
	s := store.New()
	s.Add(rdf.NewTriple(rdf.IRI("urn:a"), rdf.IRI("urn:p"), rdf.TypedLiteral("1", rdf.XSDInteger)))
	s.Add(rdf.NewTriple(rdf.IRI("urn:a2"), rdf.IRI("urn:p"), rdf.TypedLiteral("7", rdf.XSDInteger)))
	s.Add(rdf.NewTriple(rdf.IRI("urn:b"), rdf.IRI("urn:q"), rdf.TypedLiteral("01", rdf.XSDInteger)))
	s.Add(rdf.NewTriple(rdf.IRI("urn:b2"), rdf.IRI("urn:q"), rdf.String("one")))
	s.Freeze()
	q := sparql.MustParse(
		`SELECT ?s ?t WHERE { ?s <urn:p> ?x . ?t <urn:q> ?y FILTER (?x = ?y) }`,
		rdf.Prefixes)

	// The native plan must actually take the hashed-block path.
	plan, err := engine.New(s, engine.Native()).Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "hashseg[key=") {
		t.Fatalf("expected a keyed hashseg plan, got:\n%s", plan)
	}

	for _, opts := range operatorAblations() {
		rows := renderEngine(t, s, opts, q)
		if len(rows) != 1 || !strings.Contains(rows[0], "urn:a") || !strings.Contains(rows[0], "urn:b") {
			t.Errorf("%s: got %v, want the single value-equal pair (urn:a, urn:b)", opts.Name, rows)
		}
	}
}

// TestConstantFilterNotDroppedByPhysicalPlan: a variable-free FILTER
// conjunct lands in the backtracker's preFilters, which the physical
// iterators do not evaluate — such BGPs must stay on the backtracker.
// Regression test for the physical layer silently dropping FILTER(1 > 2).
func TestConstantFilterNotDroppedByPhysicalPlan(t *testing.T) {
	s := store.New()
	for i := 0; i < 10; i++ {
		o := rdf.IRI(fmt.Sprintf("urn:o%d", i))
		s.Add(rdf.NewTriple(rdf.IRI("urn:s"), rdf.IRI("urn:p"), o))
		s.Add(rdf.NewTriple(o, rdf.IRI("urn:q"), rdf.Integer(i)))
	}
	s.Freeze()
	for _, src := range []string{
		`SELECT ?o WHERE { <urn:s> <urn:p> ?o . ?o <urn:q> ?z FILTER (1 > 2) }`,
		`SELECT ?o WHERE { <urn:s> <urn:p> ?o . ?o <urn:q> ?z FILTER (2 > 1) }`,
	} {
		q := sparql.MustParse(src, rdf.Prefixes)
		var ref []string
		var refName string
		for _, opts := range append(operatorAblations(), engine.Mem()) {
			rows := renderEngine(t, s, opts, q)
			if ref == nil {
				ref, refName = rows, opts.Name
				continue
			}
			if strings.Join(rows, "\n") != strings.Join(ref, "\n") {
				t.Errorf("%q: %s returned %d rows, %s returned %d",
					src, opts.Name, len(rows), refName, len(ref))
			}
		}
	}
}
