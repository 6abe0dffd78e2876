package engine

// The keyed block join of the vectorized path. When the trailing
// patterns of a BGP share exactly one variable ?k with the patterns
// bound before them — two stars meeting on one key, as Q4's article
// pairs meet on ?journal — pipelining the tail re-derives the same
// ?k → tail expansion once per left row. The block join evaluates the
// tail once instead, as its own vec BGP pipeline (with its own
// reordering, merges and hashes), materializes its rows column-wise
// grouped by ?k, and lets each left row probe it once, copying the
// whole run into the output batch column by column. Keys match by term
// identity (dictionary IDs): a shared variable is join semantics, not
// FILTER `=`. Conjuncts linking the block to the prefix run on the
// joined batch.

import (
	"fmt"
	"math/bits"
	"sort"

	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// blockChoice is the planner's pick of a trailing block for the keyed
// block join.
type blockChoice struct {
	start int     // first pattern of the block in the ordered BGP; -1 = none
	key   string  // the one variable the block shares with the prefix
	est   float64 // blockEstimate of the block on its own
	out   float64 // cumulative estimate of the whole BGP's output
}

// cardChain returns the planner's cumulative estimate of the rows
// flowing out of each step of the ordered BGP: the pipeline's leftCard.
func (c *compiled) cardChain(ordered []sparql.TriplePattern) []float64 {
	cards := make([]float64, len(ordered))
	bound := map[string]bool{}
	card := 1.0
	for i, p := range ordered {
		card *= max(1, c.estimate(p, bound))
		cards[i] = card
		addVars(bound, p)
	}
	return cards
}

// chooseBlock picks where, if anywhere, the keyed block join takes over
// the ordered BGP, from the estimates the pipeline planner already
// uses (cards is its cardChain). A start i qualifies when ordered[i:]
// holds at least two patterns (the block is a BGP pipeline of its
// own), shares exactly one variable with the patterns before it,
// pattern i joins on that variable, and step i cannot merge. Pipelined,
// the tail carries the sum of its steps' cumulative estimates; as a
// block it costs its own estimate plus the rows it emits. The
// qualifying start with the largest saving wins; hash joins off (an
// ablation) means no block.
func (c *compiled) chooseBlock(steps []patternStep, ordered []sparql.TriplePattern, cards []float64, sortSlot int) blockChoice {
	best := blockChoice{start: -1}
	n := len(ordered)
	if !c.eng.opts.HashJoins {
		return best
	}
	bestSaving := 0.0
	prefix := map[string]bool{}
	addVars(prefix, ordered[0])
	for i := 1; i <= n-2; i++ {
		if key, ok := blockKey(ordered, i, prefix); ok {
			pipelined := 0.0
			for _, cd := range cards[i:] {
				pipelined += cd
			}
			est := c.blockEstimate(ordered[i:], nil)
			saving := pipelined - (est + cards[n-1])
			if saving > bestSaving && !c.canMerge(steps[i], key, sortSlot) {
				best = blockChoice{start: i, key: key, est: est, out: cards[n-1]}
				bestSaving = saving
			}
		}
		addVars(prefix, ordered[i])
	}
	return best
}

// blockKey returns the one variable the patterns ordered[i:] share with
// prefix, provided pattern i itself joins on it.
func blockKey(ordered []sparql.TriplePattern, i int, prefix map[string]bool) (string, bool) {
	tail := map[string]bool{}
	for _, p := range ordered[i:] {
		addVars(tail, p)
	}
	key := ""
	for v := range tail {
		if prefix[v] {
			if key != "" {
				return "", false
			}
			key = v
		}
	}
	shared := sharedBoundVars(ordered[i], prefix)
	return key, key != "" && len(shared) == 1 && shared[0] == key
}

// canMerge reports whether the pipeline would merge-join step on key.
func (c *compiled) canMerge(step patternStep, key string, sortSlot int) bool {
	if !c.eng.opts.MergeJoins {
		return false
	}
	_, ok := c.mergeStep(step, key, sortSlot)
	return ok
}

// buildVecBlock compiles the keyed block join of the trailing steps
// onto the prefix pipeline left. The steps' filter conjuncts split as
// for a hashed segment (splitLinkFilters): those over block variables
// only go into the block's pipeline, the rest run on the joined batch.
// A nil operator means the block's own pipeline is not covered; the
// caller then keeps pipelining.
func (c *compiled) buildVecBlock(left vecOp, steps []patternStep, tail []sparql.TriplePattern,
	blk blockChoice, boundSlots map[int]bool) vecOp {
	blockVars := map[string]bool{}
	for _, p := range tail {
		addVars(blockVars, p)
	}
	var internal, link []sparql.Expr
	for _, sp := range steps {
		in, ln := splitLinkFilters(sp.filters, blockVars)
		internal = append(internal, in...)
		link = append(link, ln...)
	}
	block, _ := c.buildVecBGP(tail, internal, fmt.Sprintf("vec block[?%s] operators:", blk.key))
	if block == nil {
		return nil
	}
	j := &vecBlockJoin{c: c, left: left, block: block, keySlot: c.slot(blk.key)}
	j.prevBound = sortedSlots(boundSlots)
	for v := range blockVars {
		if v != blk.key {
			j.blockSlots = append(j.blockSlots, c.slot(v))
		}
	}
	sort.Ints(j.blockSlots)
	j.fast, j.slow = c.compileFilters(link)
	j.n = &tnode{op: "block", detail: "vectorized key=?" + blk.key, est: blk.out, children: childTNodes(block)}
	return c.vwrap(j, j.n)
}

// vecBlockJoin probes a materialized, key-grouped block once per left
// row. The block is uncorrelated with the left side, so it is built
// once per query, lazily on the first non-empty left batch: an empty
// left side never evaluates it.
type vecBlockJoin struct {
	c          *compiled
	left       vecOp
	block      vecOp
	keySlot    int
	prevBound  []int // slots the prefix binds (the key among them), copied from the left row
	blockSlots []int // slots the block binds besides the key
	fast       []fastCmp
	slow       []sparql.Expr
	n          *tnode // trace node, read only under WithAnalyze
	out        *Batch
	selbuf     []int32
	rowbuf     []store.ID

	// The block's rows grouped by key: cols[j] holds blockSlots[j].
	built bool
	runs  keyRuns
	cols  [][]store.ID

	// run state
	in     *Batch
	ipos   int // next left row to probe
	row    int // left row whose run is being emitted
	lo, hi int // the rest of that run
	done   bool
}

func (v *vecBlockJoin) open() {
	v.left.open()
	if v.out == nil {
		v.out = v.c.newBatch()
	}
	v.in, v.ipos, v.row, v.lo, v.hi = nil, 0, 0, 0, 0
	v.done = false
}

func (v *vecBlockJoin) next() (*Batch, error) {
	if v.done {
		return nil, nil
	}
	out := v.out
	out.Reset()
	for {
		if err := v.c.cancel.check(); err != nil {
			return nil, err
		}
		if v.lo == v.hi { // run spent: probe the next left row
			if v.in == nil || v.ipos >= v.in.Len() {
				b, err := v.left.next()
				if err != nil {
					return nil, err
				}
				if b == nil {
					v.done = true
					return v.flush(out), nil
				}
				if err := v.build(); err != nil {
					return nil, err
				}
				if v.runs.n == 0 { // empty block: no left row can match
					v.done = true
					return nil, nil
				}
				v.in, v.ipos = b, 0
			}
			v.row = v.ipos
			v.ipos++
			v.lo, v.hi = v.runs.run(v.in.cols[v.keySlot][v.row])
			continue
		}
		if out.Full() {
			// Filter and emit; if every row was rejected, keep filling
			// from where the run stopped.
			if b := v.flush(out); b != nil {
				return b, nil
			}
		}
		v.emit(out, min(v.hi-v.lo, out.Cap()-out.n))
	}
}

// emit appends the next m rows of the current run: the left row's
// bindings repeated down each prefix column, the block's columns copied
// as contiguous slices.
func (v *vecBlockJoin) emit(out *Batch, m int) {
	n := out.n
	for _, s := range v.prevBound {
		x := v.in.cols[s][v.row]
		col := out.cols[s][n : n+m]
		for r := range col {
			col[r] = x
		}
	}
	for j, s := range v.blockSlots {
		copy(out.cols[s][n:n+m], v.cols[j][v.lo:v.lo+m])
	}
	out.n = n + m
	v.lo += m
}

// flush runs the link conjuncts over the accumulated rows; nil means
// none survived and the (now compacted) batch is empty again.
func (v *vecBlockJoin) flush(out *Batch) *Batch {
	applyVecFilters(v.c, out, v.fast, v.slow, &v.selbuf, &v.rowbuf)
	if out.Len() == 0 {
		return nil
	}
	return out
}

// build drains the block pipeline once and groups its rows by key with
// a counting sort: count each key's rows, prefix-sum the counts into
// run offsets, then scatter every column into its key's run.
func (v *vecBlockJoin) build() error {
	if v.built {
		return nil
	}
	v.built = true
	v.block.open()
	var keys []store.ID
	raw := make([][]store.ID, len(v.blockSlots))
	for {
		if err := v.c.cancel.check(); err != nil {
			return err
		}
		b, err := v.block.next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		keys = append(keys, b.Col(v.keySlot)...)
		for j, s := range v.blockSlots {
			raw[j] = append(raw[j], b.Col(s)...)
		}
	}
	dst := make([]uint32, len(keys))
	var counts []uint32
	for r, k := range keys {
		g := v.runs.group(k)
		if g == len(counts) {
			counts = append(counts, 0)
		}
		counts[g]++
		dst[r] = uint32(g)
	}
	off := make([]uint32, len(counts)+1)
	for g, n := range counts {
		off[g+1] = off[g] + n
	}
	fill := counts // reused: the next free row of each run
	copy(fill, off)
	for r, g := range dst {
		dst[r] = fill[g]
		fill[g]++
	}
	v.runs.off = off
	v.cols = make([][]store.ID, len(raw))
	for j, col := range raw {
		grouped := make([]store.ID, len(col))
		for r, x := range col {
			grouped[dst[r]] = x
		}
		v.cols[j] = grouped
	}
	v.n.build.Store(int64(len(keys)))
	return nil
}

// keyRuns maps each key of a materialized block to its run: rows
// off[g] up to off[g+1] of the grouped columns hold key group g. The
// table is pointer-free open addressing with linear probing over
// uint64 cells packing key | (g+1)<<32, doubling at half load like
// packedSet; no key is NoID, so a zero cell is empty.
type keyRuns struct {
	cells []uint64
	shift uint // 64 - log2(len(cells))
	n     int  // groups
	off   []uint32
}

// group returns k's group index, opening a new group on first sight.
func (t *keyRuns) group(k store.ID) int {
	if t.cells == nil {
		t.resize(packedMinCells)
	}
	mask := uint64(len(t.cells) - 1)
	for i := uint64(k) * fibMul >> t.shift; ; i = (i + 1) & mask {
		switch cell := t.cells[i]; {
		case cell == 0:
			t.n++
			t.cells[i] = uint64(k) | uint64(t.n)<<32
			if 2*t.n > len(t.cells) {
				t.resize(2 * len(t.cells))
			}
			return t.n - 1
		case store.ID(cell) == k:
			return int(cell>>32) - 1
		}
	}
}

// run returns the row range holding key k; empty when k is absent.
func (t *keyRuns) run(k store.ID) (lo, hi int) {
	if t.cells == nil {
		return 0, 0
	}
	mask := uint64(len(t.cells) - 1)
	for i := uint64(k) * fibMul >> t.shift; ; i = (i + 1) & mask {
		switch cell := t.cells[i]; {
		case cell == 0:
			return 0, 0
		case store.ID(cell) == k:
			g := cell>>32 - 1
			return int(t.off[g]), int(t.off[g+1])
		}
	}
}

// resize rehashes every cell into a table of size cells (a power of
// two).
func (t *keyRuns) resize(size int) {
	old := t.cells
	t.cells = make([]uint64, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, cell := range old {
		if cell == 0 {
			continue
		}
		i := uint64(uint32(cell)) * fibMul >> t.shift
		for t.cells[i] != 0 {
			i = (i + 1) & mask
		}
		t.cells[i] = cell
	}
}
