package engine_test

// Tests for the vectorized keyed block join (block.go): on a small graph
// of two stars meeting on ?k, every shape the operator has to get right
// must return exactly the mem reference's rows, with batches small
// enough to split every run and every filtered batch.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sp2bench/internal/engine"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// blockStars builds two stars over four shared keys:
//
//	a0..a59  :type :A, :p ?k (k = i mod 4), :name "N<i>"
//	b0..b59  :r ?k (k = j mod 4), :name2 "N<j>", or an IRI when j mod 5 = 0
//	c0..c59  :q "C<i>"   (no c has :p, so ?a :p ?k . ?a :q ?x is empty)
//	d0..d59  :t "D<j>"   (no d has :r, so ?b :r ?k . ?b :t ?y is empty)
//
// The :type pattern anchors the left star sorted by ?a, so the right
// star cannot merge on ?k and the planner builds it as a block. There is
// also one pair whose keys are value-equal but distinct terms ("1" and
// "01" as xsd:integer): a shared variable joins by term identity, so the
// pair must not meet.
func blockStars() *store.Store {
	s := store.New()
	add := func(subj, pred string, obj rdf.Term) {
		s.Add(rdf.NewTriple(rdf.IRI(subj), rdf.IRI(pred), obj))
	}
	key := func(i int) rdf.Term { return rdf.IRI(fmt.Sprintf("urn:k%d", i%4)) }
	for i := 0; i < 60; i++ {
		a, b := fmt.Sprintf("urn:a%d", i), fmt.Sprintf("urn:b%d", i)
		add(a, "urn:type", rdf.IRI("urn:A"))
		add(a, "urn:p", key(i))
		add(a, "urn:name", rdf.String(fmt.Sprintf("N%02d", i)))
		add(b, "urn:r", key(i))
		if i%5 == 0 {
			add(b, "urn:name2", rdf.IRI(fmt.Sprintf("urn:n%d", i)))
		} else {
			add(b, "urn:name2", rdf.String(fmt.Sprintf("N%02d", i)))
		}
		add(fmt.Sprintf("urn:c%d", i), "urn:q", rdf.String(fmt.Sprintf("C%d", i)))
		add(fmt.Sprintf("urn:d%d", i), "urn:t", rdf.String(fmt.Sprintf("D%d", i)))
	}
	add("urn:a-int", "urn:type", rdf.IRI("urn:A"))
	add("urn:a-int", "urn:p", rdf.TypedLiteral("1", rdf.XSDInteger))
	add("urn:a-int", "urn:name", rdf.String("N99"))
	add("urn:b-int", "urn:r", rdf.TypedLiteral("01", rdf.XSDInteger))
	add("urn:b-int", "urn:name2", rdf.String("N99"))
	s.Freeze()
	return s
}

func TestBlockJoinAgreesWithMem(t *testing.T) {
	s := blockStars()
	cases := []struct {
		name, where string
		empty       bool
	}{
		// Duplicate keys on both sides: every left row probes a run of 15.
		{name: "duplicate keys", where: `?a <urn:type> <urn:A> . ?a <urn:p> ?k . ?a <urn:name> ?x . ?b <urn:r> ?k . ?b <urn:name2> ?y`},
		// The link conjunct runs on the joined batch: it rejects whole
		// runs (every ?y <= ?x), and every IRI ?y is a type error that
		// must reject, never pass.
		{name: "link filter", where: `?a <urn:type> <urn:A> . ?a <urn:p> ?k . ?a <urn:name> ?x . ?b <urn:r> ?k . ?b <urn:name2> ?y FILTER (?x < ?y)`},
		// A conjunct over block variables only runs inside the block's
		// own pipeline; the link one still runs on the joined batch.
		{name: "internal and link filters", where: `?a <urn:type> <urn:A> . ?a <urn:p> ?k . ?a <urn:name> ?x . ?b <urn:r> ?k . ?b <urn:name2> ?y FILTER (?y > "N10" && ?x >= ?y)`},
		{name: "empty left", where: `?a <urn:type> <urn:A> . ?a <urn:p> ?k . ?a <urn:q> ?x . ?b <urn:r> ?k . ?b <urn:name2> ?y`, empty: true},
		{name: "empty block", where: `?a <urn:type> <urn:A> . ?a <urn:p> ?k . ?a <urn:name> ?x . ?b <urn:r> ?k . ?b <urn:t> ?y`, empty: true},
	}
	configs := []engine.Options{engine.NativeVec(), engine.Native()}
	for _, size := range []int{1, 2, 7} {
		o := engine.NativeVec()
		o.Name, o.BatchSize = fmt.Sprintf("native-vec-batch%d", size), size
		configs = append(configs, o)
	}
	for _, tc := range cases {
		q := sparql.MustParse(`SELECT * WHERE { `+tc.where+` }`, rdf.Prefixes)
		plan, err := engine.New(s, engine.NativeVec()).Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "block[?k rows=") {
			t.Fatalf("%s: expected a keyed block join on ?k, got:\n%s", tc.name, plan)
		}
		want := renderEngine(t, s, engine.Mem(), q)
		if tc.empty != (len(want) == 0) {
			t.Fatalf("%s: mem returned %d rows", tc.name, len(want))
		}
		for _, opts := range configs {
			got := renderEngine(t, s, opts, q)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s: %s returned %d rows, mem returned %d", tc.name, opts.Name, len(got), len(want))
			}
		}
	}
}

// TestBlockJoinTrace checks the block's EXPLAIN ANALYZE node: its own
// vectorized operator under the BGP, the block pipeline as its child,
// the materialized row count as build=, and rows that add up.
func TestBlockJoinTrace(t *testing.T) {
	s := blockStars()
	q := sparql.MustParse(`SELECT * WHERE { ?a <urn:type> <urn:A> . ?a <urn:p> ?k . ?a <urn:name> ?x . ?b <urn:r> ?k . ?b <urn:name2> ?y }`, rdf.Prefixes)
	opts := engine.NativeVec()
	opts.BatchSize = 2
	n, tr, err := engine.New(s, opts).CountAnalyze(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var block *engine.TraceNode
	var walk func(tn *engine.TraceNode)
	walk = func(tn *engine.TraceNode) {
		if tn.Op == "block" {
			block = tn
		}
		for _, c := range tn.Children {
			walk(c)
		}
	}
	walk(tr.Root)
	if block == nil {
		t.Fatalf("no block node in trace:\n%s", tr)
	}
	if block.Rows != int64(n) || tr.Rows != int64(n) {
		t.Errorf("block rows %d, root rows %d, result count %d", block.Rows, tr.Rows, n)
	}
	if block.Batches < int64(n)/2 {
		t.Errorf("block emitted %d rows in %d batches of at most 2", n, block.Batches)
	}
	// 61 ?b rows have a key; the block materializes each once.
	if block.BuildRows != 61 {
		t.Errorf("block build=%d, want 61", block.BuildRows)
	}
	if len(block.Children) != 1 || block.Children[0].Op != "bgp" || block.Children[0].Rows != 61 {
		t.Errorf("block child should be its 61-row bgp pipeline:\n%s", tr)
	}
	if !strings.Contains(tr.String(), "build=61") {
		t.Errorf("rendered trace lacks the block's build count:\n%s", tr)
	}
}
