package engine

// Unit tests and the layer benchmark for the shared DISTINCT row set
// (distinct.go). Engine-level DISTINCT semantics — agreement across
// executors, term identity — are covered in engine_test.go and by the
// differential fuzzer.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"sp2bench/internal/store"
)

// keepRows runs rows through both entry points of a fresh set per call
// — the tuple path's addRow and the batch path's keepNew — checks that
// they agree, and returns the indexes of the rows kept.
func keepRows(t *testing.T, slots []int, width int, rows [][]store.ID) []int {
	t.Helper()
	tuple := rowSet{slots: slots}
	tuple.reset()
	var kept []int
	for i, row := range rows {
		if tuple.addRow(row) {
			kept = append(kept, i)
		}
	}
	batch := rowSet{slots: slots}
	batch.reset()
	cols := make([][]store.ID, width)
	for s := range cols {
		for _, row := range rows {
			cols[s] = append(cols[s], row[s])
		}
	}
	sel := batch.keepNew(cols, len(rows), nil)
	if fmt.Sprint(sel) != fmt.Sprint(kept) {
		t.Fatalf("slots %v: batch kept %v, tuple kept %v", slots, sel, kept)
	}
	return kept
}

func TestRowSetZeroKeyKeptOnce(t *testing.T) {
	rows := [][]store.ID{{0, 0, 5}, {1, 0, 6}, {0, 0, 7}, {0, 1, 8}, {0, 0, 9}}
	for _, tc := range []struct {
		slots []int
		want  string
	}{
		{[]int{}, "[0]"},
		{[]int{0}, "[0 1]"},
		{[]int{0, 1}, "[0 1 3]"},
	} {
		if got := fmt.Sprint(keepRows(t, tc.slots, 3, rows)); got != tc.want {
			t.Errorf("slots %v: kept %s, want %s", tc.slots, got, tc.want)
		}
	}
}

func TestPackedSetUniqueAfterManyDoublings(t *testing.T) {
	const n = 1 << 20
	var p packedSet
	key := func(i int) uint64 {
		// Both halves vary, as in a two-slot key; 0 is never produced.
		return uint64(i+1) | uint64(i%977)<<32
	}
	for i := 0; i < n; i++ {
		if !p.add(key(i)) {
			t.Fatalf("key %d reported as seen on first insert", i)
		}
	}
	for i := 0; i < n; i++ {
		if p.add(key(i)) {
			t.Fatalf("key %d reported as new on second insert", i)
		}
	}
	if p.n != n || 2*p.n > len(p.cells) {
		t.Fatalf("n=%d cells=%d: want %d keys at most half full", p.n, len(p.cells), n)
	}
}

func TestRowSetSlotOrderAndWidth(t *testing.T) {
	const a, b = store.ID(3), store.ID(7)
	// Two slots: order is part of the key, and unbound in either
	// position differs from the other.
	rows := [][]store.ID{{a, b}, {b, a}, {a, 0}, {0, a}, {a, b}, {b, a}}
	if got := fmt.Sprint(keepRows(t, []int{0, 1}, 2, rows)); got != "[0 1 2 3]" {
		t.Errorf("two-slot set kept %s, want [0 1 2 3]", got)
	}
	// One slot keys on its own column only: (a,b) and (a,0) are one row.
	if got := fmt.Sprint(keepRows(t, []int{0}, 2, rows)); got != "[0 1 3]" {
		t.Errorf("one-slot set kept %s, want [0 1 3]", got)
	}
	// The one-slot key a packs to the same uint64 as the two-slot key
	// (a, unbound); a set holds one key width only, so they never meet.
	if pack2(a, 0) != uint64(a) {
		t.Fatalf("pack2(a, 0) = %d", pack2(a, 0))
	}
}

func TestRowSetWideKeys(t *testing.T) {
	rows := [][]store.ID{{1, 2, 3, 4}, {1, 2, 3, 5}, {1, 2, 3, 4}, {0, 0, 0, 0}, {2, 1, 3, 4}, {0, 0, 0, 0}}
	if got := fmt.Sprint(keepRows(t, []int{0, 1, 2, 3}, 4, rows)); got != "[0 1 3 4]" {
		t.Errorf("four-slot set kept %s, want [0 1 3 4]", got)
	}
	// Only the key slots count: slot 3 is outside this key.
	if got := fmt.Sprint(keepRows(t, []int{0, 1, 2}, 4, rows)); got != "[0 3 4]" {
		t.Errorf("three-slot set kept %s, want [0 3 4]", got)
	}
}

// distinctSource replays rows into batches, as a projection feeding a
// DISTINCT would.
type distinctSource struct {
	c    *compiled
	cols [][]store.ID // cols[slot][row]
	out  *Batch
	pos  int
}

func (s *distinctSource) open() { s.pos = 0 }

func (s *distinctSource) next() (*Batch, error) {
	total := len(s.cols[0])
	if s.pos == total {
		return nil, nil
	}
	if s.out == nil {
		s.out = s.c.newBatch()
	}
	s.out.Reset()
	n := min(s.out.Cap(), total-s.pos)
	for slot := range s.cols {
		copy(s.out.cols[slot][:n], s.cols[slot][s.pos:s.pos+n])
	}
	s.out.n = n
	s.pos += n
	return s.out, nil
}

// BenchmarkDistinct is the DISTINCT step of the layer ladder: about 1M
// rows, half of them repeats of an earlier row in random order, through
// the batch DISTINCT keyed on 1, 2 and 3 of a 7-slot row (Q4's width).
// The other slots are unbound, as after a projection. Reports ns/row.
func BenchmarkDistinct(b *testing.B) {
	const rows, width = 1 << 20, 7
	for _, keySlots := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("slots=%d", keySlots), func(b *testing.B) {
			c := &compiled{
				eng:    &Engine{},
				names:  make([]string, width),
				cancel: &canceller{ctx: context.Background()},
			}
			cols := make([][]store.ID, width)
			for s := range cols {
				cols[s] = make([]store.ID, rows)
			}
			r := rand.New(rand.NewSource(1))
			for i, u := range r.Perm(rows) {
				u %= rows / 2 // every key appears twice
				for s := 0; s < keySlots; s++ {
					part := u
					if s < keySlots-1 {
						part, u = u%1024, u/1024
					}
					cols[s][i] = store.ID(1 + part)
				}
			}
			slots := make([]int, keySlots)
			for s := range slots {
				slots[s] = s
			}
			d := &vecDistinct{c: c, input: &distinctSource{c: c, cols: cols}, seen: rowSet{slots: slots}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.open()
				kept := 0
				for {
					out, err := d.next()
					if err != nil {
						b.Fatal(err)
					}
					if out == nil {
						break
					}
					kept += out.Len()
				}
				if kept != rows/2 {
					b.Fatalf("kept %d rows, want %d", kept, rows/2)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}
