package main

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"sp2bench/internal/rdf"
	"sp2bench/internal/results"
)

// TestCountSolutions checks the generator's streaming count against
// documents written by the server's own JSON writer, read one byte at a
// time so every token straddles a read boundary.
func TestCountSolutions(t *testing.T) {
	tricky := rdf.Literal(`a "quoted" {brace} [bracket] \ "boolean": true`)
	cases := []struct {
		name string
		res  *results.Result
		want int
	}{
		{"empty select", results.Select([]string{"x"}, nil), 0},
		{"select", results.Select([]string{"x", "y"}, [][]rdf.Term{
			{rdf.IRI("http://a"), tricky},
			{rdf.IRI("http://b"), {}},
			{tricky, rdf.Blank("b0")},
		}), 3},
		{"ask true", results.Ask(true), 1},
		{"ask false", results.Ask(false), 0},
	}
	for _, c := range cases {
		var b bytes.Buffer
		if err := c.res.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		got, err := countSolutions(iotest.OneByteReader(bytes.NewReader(b.Bytes())))
		if err != nil || got != c.want {
			t.Errorf("%s: got %d, %v; want %d", c.name, got, err, c.want)
		}
	}
}

func TestCountSolutionsRejectsBadDocuments(t *testing.T) {
	for _, doc := range []string{
		`{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"uri","value":"http://a"}}`,
		`{"head":{}}`,
		`]`,
	} {
		if n, err := countSolutions(strings.NewReader(doc)); err == nil {
			t.Errorf("%q: got %d, want an error", doc, n)
		}
	}
}

// TestDeckDealsExactProportions checks that every block of the deck
// holds each kind its weighted number of times.
func TestDeckDealsExactProportions(t *testing.T) {
	g := &loadgen{kinds: []opKind{{id: "a", weight: 30}, {id: "b", weight: 30}, {id: "c", weight: 20}, {id: "d", weight: 20}}}
	d := g.deck(rand.New(rand.NewSource(3)))
	for block := 0; block < 5; block++ {
		counts := map[int]int{}
		for i := 0; i < 10; i++ {
			counts[d.next()]++
		}
		if counts[0] != 3 || counts[1] != 3 || counts[2] != 2 || counts[3] != 2 {
			t.Fatalf("block %d: counts %v, want 3/3/2/2", block, counts)
		}
	}
}
