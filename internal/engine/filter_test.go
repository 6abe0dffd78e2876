package engine

// Unit tests and the layer benchmark for the compiled `?a OP ?b` filter
// core (fastCmp.cmpIDs) and its column kernel. The kernel must give
// exactly the expression evaluator's verdict: algebra.CompareTerms and
// algebra.EqualTerms, with every type error rejecting the row.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"sp2bench/internal/algebra"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// dictCompiled returns a compiled query shell over a frozen store whose
// dictionary holds terms, in order (term i has ID i+1).
func dictCompiled(terms []rdf.Term) *compiled {
	st := store.New()
	for _, t := range terms {
		st.Dict().Intern(t)
	}
	st.Freeze()
	return &compiled{
		eng:    NewReader(st, NativeVec()),
		names:  []string{"a", "b"},
		cancel: &canceller{ctx: context.Background()},
	}
}

// TestCmpIDsMatchesCompareTerms checks the compiled ordering and
// equality comparisons against the expression evaluator's over every
// ordered pair of a term mix: plain, xsd:string, lang-tagged,
// typed-numeric and numeric-looking plain literals, IRIs and blank
// nodes. Both kernel paths run: dense, and narrowing a pending
// selection vector.
func TestCmpIDsMatchesCompareTerms(t *testing.T) {
	terms := []rdf.Term{
		rdf.Literal("12"),
		rdf.Literal("3"),
		rdf.Literal("abc"),
		rdf.Literal("Abc"),
		rdf.Literal(""),
		rdf.String("12"),
		rdf.String("3"),
		rdf.String("abc"),
		rdf.String("abd"),
		rdf.String("Zeta Adams"),
		rdf.String(""),
		rdf.LangLiteral("abc", "en"),
		rdf.LangLiteral("abd", "de"),
		rdf.TypedLiteral("12", rdf.XSDInteger),
		rdf.TypedLiteral("3", rdf.XSDInteger),
		rdf.TypedLiteral("3.0", rdf.XSDDecimal),
		rdf.TypedLiteral("2008", rdf.XSDGYear),
		rdf.TypedLiteral("true", rdf.XSDBoolean),
		rdf.IRI("http://example.org/a"),
		rdf.IRI("http://example.org/b"),
		rdf.Blank("b0"),
	}
	c := dictCompiled(terms)
	ops := []sparql.BinaryOp{sparql.OpLt, sparql.OpGt, sparql.OpLeq, sparql.OpGeq, sparql.OpEq, sparql.OpNeq}

	// want is the evaluator's verdict; a type error rejects.
	want := func(op sparql.BinaryOp, a, b rdf.Term) bool {
		if op == sparql.OpEq || op == sparql.OpNeq {
			eq, err := algebra.EqualTerms(a, b)
			return err == nil && eq == (op == sparql.OpEq)
		}
		cmp, err := algebra.CompareTerms(a, b)
		if err != nil {
			return false
		}
		switch op {
		case sparql.OpLt:
			return cmp < 0
		case sparql.OpGt:
			return cmp > 0
		case sparql.OpLeq:
			return cmp <= 0
		default:
			return cmp >= 0
		}
	}

	n := len(terms) * len(terms)
	b := NewBatch(2, n)
	for i := range terms {
		for j := range terms {
			b.Append([]store.ID{store.ID(i + 1), store.ID(j + 1)})
		}
	}
	for _, op := range ops {
		f := fastCmp{op: op, l: 0, r: 1}
		var expect []int32
		for r := 0; r < n; r++ {
			a, bt := terms[r/len(terms)], terms[r%len(terms)]
			ok := want(op, a, bt)
			if got := f.cmpIDs(c.eng.src.TermDict(), b.cols[0][r], b.cols[1][r]); got != ok {
				t.Errorf("%s %v %s: cmpIDs=%v, evaluator=%v", a, op, bt, got, ok)
			}
			if ok {
				expect = append(expect, int32(r))
			}
		}

		// Dense path.
		b.SetSel(nil)
		var selbuf []int32
		f.kernel(c, b, &selbuf)
		if fmt.Sprint(b.Sel()) != fmt.Sprint(expect) {
			t.Errorf("op %v dense kernel kept %v, want %v", op, b.Sel(), expect)
		}

		// Selection path: only odd rows are live on entry.
		var odd, expectOdd []int32
		for r := 1; r < n; r += 2 {
			odd = append(odd, int32(r))
		}
		for _, r := range expect {
			if r%2 == 1 {
				expectOdd = append(expectOdd, r)
			}
		}
		b.SetSel(odd)
		f.kernel(c, b, &selbuf)
		if fmt.Sprint(b.Sel()) != fmt.Sprint(expectOdd) {
			t.Errorf("op %v selection kernel kept %v, want %v", op, b.Sel(), expectOdd)
		}
	}

	// Unbound on either side rejects under every operator.
	for _, op := range ops {
		f := fastCmp{op: op}
		if f.cmpIDs(c.eng.src.TermDict(), store.NoID, 1) || f.cmpIDs(c.eng.src.TermDict(), 1, store.NoID) {
			t.Errorf("op %v accepted an unbound operand", op)
		}
	}
}

// BenchmarkVecFilterCompare is the filter layer of the performance
// ladder: the column kernel of `?a < ?b` over about 1M rows of
// xsd:string literal pairs (Q4's `?name1 < ?name2` shape), in batches
// of DefaultBatchSize, reported in ns per row.
func BenchmarkVecFilterCompare(b *testing.B) {
	const rows, distinct = 1 << 20, 1 << 15
	r := rand.New(rand.NewSource(1))
	first := []string{"Anna", "Bernd", "Carla", "Dieter", "Eva", "Frank", "Greta", "Hugo"}
	last := []string{"Adams", "Becker", "Costa", "Dubois", "Endo", "Fischer", "Garcia", "Hansen"}
	terms := make([]rdf.Term, distinct)
	for i := range terms {
		terms[i] = rdf.String(fmt.Sprintf("%s %s %d",
			first[r.Intn(len(first))], last[r.Intn(len(last))], i))
	}
	c := dictCompiled(terms)
	c.names = []string{"name1", "name2"}
	batches := make([]*Batch, rows/DefaultBatchSize)
	for i := range batches {
		bt := NewBatch(2, DefaultBatchSize)
		for row := 0; row < DefaultBatchSize; row++ {
			bt.Append([]store.ID{store.ID(1 + r.Intn(distinct)), store.ID(1 + r.Intn(distinct))})
		}
		batches[i] = bt
	}
	f := fastCmp{op: sparql.OpLt, l: 0, r: 1}
	var selbuf []int32
	kept := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kept = 0
		for _, bt := range batches {
			bt.SetSel(nil)
			f.kernel(c, bt, &selbuf)
			kept += bt.Live()
		}
	}
	b.StopTimer()
	if kept == 0 || kept == rows {
		b.Fatalf("kernel kept %d of %d rows", kept, rows)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
}
