package engine

// DISTINCT, shared by the tuple (distinctIter) and batch (vecDistinct)
// executors. A row's key is its IDs in the slots the DISTINCT's input
// projects; projection has no operator of its own, so the other slots
// may still hold bindings and are ignored. Two rows are duplicates
// exactly when they bind the same terms: term identity (dictionary
// IDs, i.e. sameTerm), never value equality. "1" and "01" as
// xsd:integer stay two rows.
//
// Keys of one or two slots, which cover every DISTINCT in the benchmark,
// pack into a uint64 held in a pointer-free open-addressing table, so
// recording a row allocates nothing amortized and the collector never
// scans the set. Wider keys fall back to a byte-string map over the key
// slots only.

import (
	"math/bits"

	"sp2bench/internal/algebra"
	"sp2bench/internal/store"
)

// distinctSlots returns the slots a DISTINCT over input keys on: the
// projected columns when input is a projection, every slot otherwise.
func (c *compiled) distinctSlots(input algebra.Node) []int {
	var keep []bool
	if p, ok := input.(*algebra.ProjectNode); ok {
		keep = make([]bool, len(c.names))
		for _, v := range p.Columns {
			keep[c.slots[v]] = true
		}
	}
	slots := []int{}
	for s := range c.names {
		if keep == nil || keep[s] {
			slots = append(slots, s)
		}
	}
	return slots
}

// rowSet records the keys of the rows a DISTINCT has let through.
type rowSet struct {
	slots  []int
	packed packedSet           // len(slots) <= 2
	wide   map[string]struct{} // len(slots) > 2
	key    []byte
}

// reset forgets every recorded key.
func (s *rowSet) reset() {
	if len(s.slots) > 2 {
		s.wide = make(map[string]struct{})
		return
	}
	s.packed = packedSet{}
}

// pack2 is the packed key of a two-slot row; the slot order is part of
// the key, so (a,b) and (b,a) differ.
func pack2(a, b store.ID) uint64 { return uint64(a) | uint64(b)<<32 }

// addRow records row (indexed by slot) and reports whether its key is
// new.
func (s *rowSet) addRow(row []store.ID) bool {
	switch len(s.slots) {
	case 0:
		return s.packed.add(0)
	case 1:
		return s.packed.add(uint64(row[s.slots[0]]))
	case 2:
		return s.packed.add(pack2(row[s.slots[0]], row[s.slots[1]]))
	}
	s.key = s.key[:0]
	for _, slot := range s.slots {
		s.key = appendID(s.key, row[slot])
	}
	return s.addWide()
}

// keepNew records the first n rows of the columns cols (indexed by
// slot) and appends to sel the index of each row whose key is new.
func (s *rowSet) keepNew(cols [][]store.ID, n int, sel []int32) []int32 {
	switch len(s.slots) {
	case 0:
		if n > 0 && s.packed.add(0) {
			sel = append(sel, 0)
		}
		return sel
	case 1:
		for r, v := range cols[s.slots[0]][:n] {
			if s.packed.add(uint64(v)) {
				sel = append(sel, int32(r))
			}
		}
		return sel
	case 2:
		a, b := cols[s.slots[0]][:n], cols[s.slots[1]][:n]
		for r := range a {
			if s.packed.add(pack2(a[r], b[r])) {
				sel = append(sel, int32(r))
			}
		}
		return sel
	}
	for r := 0; r < n; r++ {
		s.key = s.key[:0]
		for _, slot := range s.slots {
			s.key = appendID(s.key, cols[slot][r])
		}
		if s.addWide() {
			sel = append(sel, int32(r))
		}
	}
	return sel
}

func appendID(key []byte, v store.ID) []byte {
	return append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// addWide records s.key in the wide map and reports whether it is new.
// The indexed string(s.key) conversions compile to allocation-free map
// operations; only a new key allocates.
func (s *rowSet) addWide() bool {
	if _, dup := s.wide[string(s.key)]; dup {
		return false
	}
	s.wide[string(s.key)] = struct{}{}
	return true
}

// packedSet is a hash set of uint64 keys: open addressing with linear
// probing over a power-of-two []uint64 that doubles when half full. A
// zero cell is empty, so the key 0 — an all-unbound row — lives in a
// flag instead.
type packedSet struct {
	cells []uint64
	n     int  // keys in cells
	shift uint // 64 - log2(len(cells)): hash bits kept for the index
	zero  bool
}

const (
	packedMinCells = 64
	fibMul         = 0x9E3779B97F4A7C15 // 2^64 / golden ratio, odd
)

// add records k and reports whether it is new.
func (p *packedSet) add(k uint64) bool {
	if k == 0 {
		fresh := !p.zero
		p.zero = true
		return fresh
	}
	if p.cells == nil {
		p.resize(packedMinCells)
	}
	mask := uint64(len(p.cells) - 1)
	i := k * fibMul >> p.shift
	for {
		switch p.cells[i] {
		case k:
			return false
		case 0:
			p.cells[i] = k
			p.n++
			if 2*p.n > len(p.cells) {
				p.resize(2 * len(p.cells))
			}
			return true
		}
		i = (i + 1) & mask
	}
}

// resize rehashes every key into a table of size cells (a power of two).
func (p *packedSet) resize(size int) {
	old := p.cells
	p.cells = make([]uint64, size)
	p.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, k := range old {
		if k == 0 {
			continue
		}
		i := k * fibMul >> p.shift
		for p.cells[i] != 0 {
			i = (i + 1) & mask
		}
		p.cells[i] = k
	}
}
