package engine

// The vectorized execution path: batch-at-a-time operators passing
// columnar Batch slabs of dictionary IDs instead of one row per next()
// call. The pipeline mirrors the physical-operator layer of join.go —
// index range scans, nested-loop/merge/hash join stages chosen by the
// same planner helpers — but amortizes iterator dispatch, bounds
// checks, and filter evaluation over whole batches: scans decode
// store.IndexRange runs directly into columns, merge joins walk runs
// batch-wise with the same galloping cursor, and FILTER conjuncts
// compile to column-at-a-time kernels over the selection vector.
//
// Coverage is per-query: compileVec walks the algebra tree and returns
// a reason string for any form the batch path does not cover
// (aggregates, ASK, explicit group joins, OPTIONAL with conditions or
// multi-pattern right sides, disconnected blocks), in which case the
// query runs on the proven tuple operators and Explain records
// "vec: tuple fallback (<reason>)".

import (
	"fmt"
	"sort"
	"strings"

	"sp2bench/internal/algebra"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// vecOp is the batch iterator protocol. open (re)starts the operator;
// next returns the next non-empty batch of solutions, or nil at
// exhaustion. Returned batches are dense (no pending selection), owned
// by the operator, and valid until the following next call.
type vecOp interface {
	open()
	next() (*Batch, error)
}

// newBatch allocates a batch sized for this query: one column per
// variable slot, Options.BatchSize rows (DefaultBatchSize when unset).
func (c *compiled) newBatch() *Batch {
	capacity := c.eng.opts.BatchSize
	if capacity <= 0 {
		capacity = DefaultBatchSize
	}
	return NewBatch(len(c.names), capacity)
}

// compileVec attempts to build the batch pipeline for the translated
// plan. On success c.vec is set (and, under WithAnalyze, the trace root
// points at the vec operator tree); on failure the tuple path built by
// compile stays authoritative and the reason is recorded in the notes.
func (c *compiled) compileVec(plan algebra.Node) {
	var saved *tnode
	if c.trace != nil {
		saved = c.trace.root
	}
	op, reason := c.buildVecNode(plan)
	if op == nil {
		if c.trace != nil {
			c.trace.root = saved // discard partially-wrapped vec nodes
		}
		c.notes = append(c.notes, "vec: tuple fallback ("+reason+")")
		return
	}
	c.vec = op
}

// vwrap installs the trace node for a freshly built vec operator; a
// pass-through when the query is not running under WithAnalyze.
func (c *compiled) vwrap(op vecOp, n *tnode) vecOp {
	if c.trace == nil {
		return op
	}
	c.trace.root = n // build is depth-first; the last wrap is the root
	return &vecTraced{inner: op, n: n}
}

// childTNodes recovers the trace nodes of already-wrapped vec children.
func childTNodes(children ...vecOp) []*tnode {
	var out []*tnode
	for _, ch := range children {
		if t, ok := ch.(*vecTraced); ok {
			out = append(out, t.n)
		}
	}
	return out
}

// buildVecNode compiles one algebra node into a vec operator, or
// returns a nil operator and the reason the batch path cannot serve it.
func (c *compiled) buildVecNode(n algebra.Node) (vecOp, string) {
	switch node := n.(type) {
	case *algebra.BGPNode:
		return c.buildVecBGP(node.Patterns, nil, "vec operators:")
	case *algebra.FilterNode:
		if bgp, ok := node.Input.(*algebra.BGPNode); ok && c.eng.opts.PushFilters {
			return c.buildVecBGP(bgp.Patterns, algebra.SplitConjuncts(node.Cond), "vec operators:")
		}
		if lj, ok := node.Input.(*algebra.LeftJoinNode); ok {
			if op, handled, why := c.buildVecAntiJoin(node, lj); handled {
				return op, why
			}
		}
		in, why := c.buildVecNode(node.Input)
		if in == nil {
			return nil, why
		}
		f := &vecFilter{c: c, input: in}
		f.fast, f.slow = c.compileFilters(algebra.SplitConjuncts(node.Cond))
		return c.vwrap(f, &tnode{op: "filter", detail: "vectorized", children: childTNodes(in)}), ""
	case *algebra.LeftJoinNode:
		return c.buildVecLeftJoin(node)
	case *algebra.UnionNode:
		l, why := c.buildVecNode(node.Left)
		if l == nil {
			return nil, why
		}
		r, why := c.buildVecNode(node.Right)
		if r == nil {
			return nil, why
		}
		u := &vecUnion{left: l, right: r}
		return c.vwrap(u, &tnode{op: "union", detail: "vectorized", children: childTNodes(l, r)}), ""
	case *algebra.ProjectNode:
		return c.buildVecNode(node.Input) // see build: no operator needed
	case *algebra.DistinctNode:
		in, why := c.buildVecNode(node.Input)
		if in == nil {
			return nil, why
		}
		d := &vecDistinct{c: c, input: in, seen: rowSet{slots: c.distinctSlots(node.Input)}}
		return c.vwrap(d, &tnode{op: "distinct", detail: "vectorized", children: childTNodes(in)}), ""
	case *algebra.OrderNode:
		in, why := c.buildVecNode(node.Input)
		if in == nil {
			return nil, why
		}
		keys := make([]orderKey, len(node.Conds))
		for i, oc := range node.Conds {
			slot := -1
			if s, ok := c.slots[oc.Var]; ok {
				slot = s
			}
			keys[i] = orderKey{slot: slot, desc: oc.Desc}
		}
		o := &vecOrder{c: c, input: in, keys: keys}
		return c.vwrap(o, &tnode{op: "order", detail: "vectorized", children: childTNodes(in)}), ""
	case *algebra.SliceNode:
		in, why := c.buildVecNode(node.Input)
		if in == nil {
			return nil, why
		}
		s := &vecSlice{input: in, offset: node.Offset, limit: node.Limit}
		return c.vwrap(s, &tnode{op: "slice", detail: "vectorized", children: childTNodes(in)}), ""
	case *algebra.JoinNode:
		return nil, "explicit join of groups"
	default:
		return nil, fmt.Sprintf("unsupported node %T", n)
	}
}

// compBind maps one SPO component of a pattern to a variable slot.
type compBind struct {
	comp int
	slot int
}

// buildVecBGP compiles a BGP into a scan → join-stage pipeline using
// the same preparation (reordering, filter placement) and join-operator
// selection (mergeStep/hashStep, with the tuple layer's thresholds) as
// planBGP, plus the keyed block join (block.go), which the tuple layer
// lacks. label heads the pipeline's Explain note.
func (c *compiled) buildVecBGP(patterns []sparql.TriplePattern, conjuncts []sparql.Expr, label string) (vecOp, string) {
	opts := c.eng.opts
	if !opts.UseIndexes {
		return nil, "no index access path"
	}
	// prepareBGP re-runs reordering for the vec pass; drop its duplicate
	// notes — the tuple build already recorded them.
	mark := len(c.notes)
	b, ordered := c.prepareBGP(patterns, conjuncts, nil)
	c.notes = c.notes[:mark]
	if b.empty {
		// A constant is missing from the dictionary: no rows, ever.
		return c.vwrap(vecEmpty{}, &tnode{op: "bgp", detail: "vectorized empty"}), ""
	}
	if len(b.steps) < 2 {
		return nil, "unit bgp"
	}
	if len(b.preFilters) > 0 || len(b.unitFilters) > 0 {
		return nil, "constant pre-filter"
	}

	st := c.eng.src
	bound := map[string]bool{}
	boundSlots := map[int]bool{}
	leftCard := 1.0
	var pipe vecOp
	var tsteps []*tstep
	var desc strings.Builder
	desc.WriteString(label)

	traceStep := func(op, pattern string, est float64) *tstep {
		if c.trace == nil {
			return nil
		}
		ts := &tstep{op: op, pattern: pattern, est: est}
		tsteps = append(tsteps, ts)
		return ts
	}

	// The anchor's range fixes the stream's sort order, which the block
	// choice needs before the loop reaches it.
	rng0 := st.Range(constWant(b.steps[0]).Spread())
	sortSlot := leadVarSlot(b.steps[0], rng0)
	cards := c.cardChain(ordered)
	blk := c.chooseBlock(b.steps, ordered, cards, sortSlot)
	for i, step := range b.steps {
		p := ordered[i]
		if i == 0 {
			scan := &vecScan{c: c, rng: rng0}
			scan.configure(step)
			scan.fast, scan.slow = c.compileFilters(step.filters)
			leftCard = cards[0]
			scan.ts = traceStep(opScan.String(), p.String(), leftCard)
			fmt.Fprintf(&desc, " scan[%s rows=%d]", rng0.Ord, len(rng0.Rows))
			pipe = scan
			addVars(bound, p)
			addStepSlots(boundSlots, step)
			continue
		}
		if i == blk.start {
			if op := c.buildVecBlock(pipe, b.steps[i:], ordered[i:], blk, boundSlots); op != nil {
				pipe = op
				leftCard = blk.out
				fmt.Fprintf(&desc, " block[?%s rows=%.0f]", blk.key, blk.est)
				break
			}
		}
		shared := sharedBoundVars(p, bound)
		if len(shared) == 0 && len(p.Vars()) > 0 && len(bound) > 0 {
			// Disconnected block: the tuple layer materializes it as a
			// keyed segment (opHashSeg); the batch path doesn't yet.
			return nil, "disconnected block"
		}
		ps := physStep{kind: opNL, step: step}
		if opts.MergeJoins && len(shared) == 1 {
			if ms, ok := c.mergeStep(step, shared[0], sortSlot); ok {
				ps = ms
			}
		}
		if ps.kind == opNL && opts.HashJoins && len(shared) == 1 && leftCard >= hashJoinThreshold {
			if hs, ok := c.hashStep(step, shared[0], leftCard); ok {
				ps = hs
			}
		}
		j := &vecJoin{
			c: c, kind: ps.kind, child: pipe, step: step, rng: ps.rng,
			joinSlot: ps.joinSlot, keyPos: ps.keyPos, lead: ps.lead,
		}
		j.configure(boundSlots)
		j.fast, j.slow = c.compileFilters(step.filters)
		leftCard = cards[i]
		j.ts = traceStep(ps.kind.String(), p.String(), leftCard)
		switch ps.kind {
		case opMerge:
			fmt.Fprintf(&desc, " merge[?%s %s rows=%d]", c.names[ps.joinSlot], ps.rng.Ord, len(ps.rng.Rows))
		case opHash:
			fmt.Fprintf(&desc, " hash[?%s build=%d]", c.names[ps.joinSlot], len(ps.rng.Rows))
		default:
			desc.WriteString(" nl")
		}
		pipe = j
		addVars(bound, p)
		addStepSlots(boundSlots, step)
	}
	c.notes = append(c.notes, desc.String())
	n := &tnode{op: "bgp", detail: "vectorized", est: leftCard, steps: tsteps, children: childTNodes(pipe)}
	return c.vwrap(pipe, n), ""
}

// addStepSlots records the variable slots a pattern step binds.
func addStepSlots(slots map[int]bool, step patternStep) {
	for i := 0; i < 3; i++ {
		if p := step.pos[i]; p.isVar {
			slots[p.slot] = true
		}
	}
}

// sortedSlots flattens a slot set in ascending order.
func sortedSlots(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// applyVecFilters runs the step's compiled filter conjuncts over the
// batch's live rows — the fast var-var comparisons as column kernels,
// the rest per-row through the expression evaluator — then compacts the
// survivors so the batch leaves the operator dense.
func applyVecFilters(c *compiled, b *Batch, fast []fastCmp, slow []sparql.Expr, selbuf *[]int32, rowbuf *[]store.ID) {
	for _, f := range fast {
		if b.Live() == 0 {
			break
		}
		f.kernel(c, b, selbuf)
	}
	for _, f := range slow {
		if b.Live() == 0 {
			break
		}
		slowKernel(c, b, f, selbuf, rowbuf)
	}
	b.Compact()
}

// kernel evaluates the comparison column-at-a-time over the batch's
// live rows, narrowing the selection vector in place.
//
// sp2b:valuecmp column kernels delegate to cmpIDs (value comparison)
func (f fastCmp) kernel(c *compiled, b *Batch, selbuf *[]int32) {
	dict := c.eng.src.TermDict()
	lc, rc := b.cols[f.l], b.cols[f.r]
	if b.sel == nil {
		sel := emptySel(*selbuf)
		for r := 0; r < b.n; r++ {
			if f.cmpIDs(dict, lc[r], rc[r]) {
				sel = append(sel, int32(r))
			}
		}
		*selbuf = sel
		b.sel = sel
		return
	}
	// In-place narrowing: writes trail reads because sel is ascending.
	sel := b.sel[:0]
	for _, r := range b.sel {
		if f.cmpIDs(dict, lc[r], rc[r]) {
			sel = append(sel, r)
		}
	}
	b.sel = sel
}

// slowKernel evaluates one general conjunct per live row via the
// expression evaluator; type errors reject the row, like filterIter.
func slowKernel(c *compiled, b *Batch, f sparql.Expr, selbuf *[]int32, rowbuf *[]store.ID) {
	pass := func(r int32) bool {
		*rowbuf = b.CopyRow(int(r), *rowbuf)
		v, err := algebra.EvalBool(f, rowBinding{c: c, row: *rowbuf})
		return err == nil && v
	}
	if b.sel == nil {
		sel := emptySel(*selbuf)
		for r := 0; r < b.n; r++ {
			if pass(int32(r)) {
				sel = append(sel, int32(r))
			}
		}
		*selbuf = sel
		b.sel = sel
		return
	}
	sel := b.sel[:0]
	for _, r := range b.sel {
		if pass(r) {
			sel = append(sel, r)
		}
	}
	b.sel = sel
}

// vecEmpty is the provably-empty BGP: a constant term absent from the
// dictionary means no triple can ever match.
type vecEmpty struct{}

func (vecEmpty) open()                 {}
func (vecEmpty) next() (*Batch, error) { return nil, nil }

// vecScan is the pipeline anchor: it decodes the first pattern's index
// range run-at-a-time into the output batch's columns via
// store.IndexRange.CopyColumns, checks repeated-variable positions, and
// runs the pushed filter kernels.
type vecScan struct {
	c   *compiled
	rng store.IndexRange
	// slotOf maps each SPO component to its destination slot (-1 = a
	// constant, or a repeated variable handled via dupOf).
	slotOf [3]int
	// dupOf marks a component holding a second occurrence of a variable:
	// the slot it must equal row-wise (-1 = none).
	dupOf   [3]int
	fast    []fastCmp
	slow    []sparql.Expr
	ts      *tstep
	out     *Batch
	scratch [3][]store.ID
	selbuf  []int32
	rowbuf  []store.ID
	pos     int
}

// configure derives the component → column plan from the pattern step.
func (v *vecScan) configure(step patternStep) {
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		v.slotOf[i], v.dupOf[i] = -1, -1
		p := step.pos[i]
		if !p.isVar {
			continue
		}
		if seen[p.slot] {
			v.dupOf[i] = p.slot
			continue
		}
		seen[p.slot] = true
		v.slotOf[i] = p.slot
	}
}

func (v *vecScan) open() {
	if v.out == nil {
		v.out = v.c.newBatch()
	}
	v.pos = 0
}

func (v *vecScan) next() (*Batch, error) {
	out := v.out
	for v.pos < len(v.rng.Rows) {
		if err := v.c.cancel.check(); err != nil {
			return nil, err
		}
		out.Reset()
		var cols [3][]store.ID
		for i := 0; i < 3; i++ {
			switch {
			case v.slotOf[i] >= 0:
				cols[i] = out.cols[v.slotOf[i]][:out.Cap()]
			case v.dupOf[i] >= 0:
				if v.scratch[i] == nil {
					v.scratch[i] = make([]store.ID, out.Cap())
				}
				cols[i] = v.scratch[i]
			}
		}
		written, consumed := v.rng.CopyColumns(v.pos, out.Cap(), cols[0], cols[1], cols[2])
		v.pos += consumed
		out.n = written
		// Repeated-variable positions must agree row-wise. Binding is by
		// term identity, so comparing dictionary IDs is exact here (this
		// is join semantics, not FILTER `=`).
		for i := 0; i < 3; i++ {
			if v.dupOf[i] < 0 {
				continue
			}
			bcol, scol := out.cols[v.dupOf[i]], v.scratch[i]
			narrowSel(out, &v.selbuf, func(r int32) bool { return bcol[r] == scol[r] })
		}
		applyVecFilters(v.c, out, v.fast, v.slow, &v.selbuf, &v.rowbuf)
		if out.Len() > 0 {
			if v.ts != nil {
				v.ts.rows.Add(int64(out.Len()))
				v.ts.batches.Add(1)
			}
			return out, nil
		}
	}
	return nil, nil
}

// emptySel resets buf to length zero, allocating on first use. The
// result is never nil: a nil selection vector means "all rows selected",
// so installing a nil empty selection would silently pass every row —
// exactly backwards for a kernel that just rejected the whole batch.
func emptySel(buf []int32) []int32 {
	if buf == nil {
		return make([]int32, 0, 16)
	}
	return buf[:0]
}

// narrowSel narrows the batch's selection with pred over the live rows.
func narrowSel(b *Batch, selbuf *[]int32, pred func(r int32) bool) {
	if b.sel == nil {
		sel := emptySel(*selbuf)
		for r := 0; r < b.n; r++ {
			if pred(int32(r)) {
				sel = append(sel, int32(r))
			}
		}
		*selbuf = sel
		b.sel = sel
		return
	}
	sel := b.sel[:0]
	for _, r := range b.sel {
		if pred(r) {
			sel = append(sel, r)
		}
	}
	b.sel = sel
}

// vecJoin is one join stage of a BGP pipeline: for each input row it
// locates the pattern's matching triples — by index probe (opNL),
// galloping merge run (opMerge), or hash-table lookup (opHash) — and
// emits the extended rows into the output batch, then runs the stage's
// filter kernels when the batch fills.
type vecJoin struct {
	c        *compiled
	kind     opKind
	child    vecOp
	step     patternStep
	rng      store.IndexRange // opMerge: co-sorted range; opHash: build range
	joinSlot int
	keyPos   int // opHash: SPO position of the join variable
	lead     int // opMerge: index component position of the join variable

	prevBound []int      // slots bound upstream, copied into each output row
	writes    []compBind // components binding new variables
	checks    []compBind // repeated components, equality-checked after writes
	wantSlot  [3]int     // opNL: slot supplying the probe constraint (-1 = none)
	wantConst [3]store.ID

	fast   []fastCmp
	slow   []sparql.Expr
	ts     *tstep
	out    *Batch
	selbuf []int32
	rowbuf []store.ID

	// run state
	in      *Batch
	ipos    int
	probing bool
	done    bool
	// opNL probe window
	rows []store.EncTriple
	filt store.EncTriple
	ord  store.Order
	rpos int
	// opMerge galloping cursor, persistent across input rows
	minited  bool
	mkey     store.ID
	runStart int
	runEnd   int
	// opHash
	table *idTable[[]store.EncTriple]
	cands []store.EncTriple
	cpos  int
}

// configure splits the pattern's components into probe constraints,
// fresh-variable writes, and equality checks, given the slots bound by
// upstream stages.
func (v *vecJoin) configure(boundSlots map[int]bool) {
	v.prevBound = sortedSlots(boundSlots)
	seen := map[int]bool{}
	keyComp := -1
	switch v.kind {
	case opMerge:
		keyComp = ordPos[v.rng.Ord][v.lead]
	case opHash:
		keyComp = v.keyPos
	}
	for i := 0; i < 3; i++ {
		v.wantSlot[i] = -1
		p := v.step.pos[i]
		if !p.isVar {
			v.wantConst[i] = store.NoID
			if !p.missing {
				v.wantConst[i] = p.id
			}
			continue
		}
		v.wantConst[i] = store.NoID
		switch {
		case v.kind == opNL && boundSlots[p.slot]:
			// The probe's want pins this component; every candidate
			// matches it by construction.
			v.wantSlot[i] = p.slot
		case i == keyComp && p.slot == v.joinSlot && !seen[p.slot]:
			// The merge run / hash bucket pins the join component.
			seen[p.slot] = true
		case boundSlots[p.slot] || seen[p.slot]:
			v.checks = append(v.checks, compBind{comp: i, slot: p.slot})
		default:
			seen[p.slot] = true
			v.writes = append(v.writes, compBind{comp: i, slot: p.slot})
		}
	}
}

func (v *vecJoin) open() {
	v.child.open()
	if v.out == nil {
		v.out = v.c.newBatch()
	}
	v.in, v.ipos = nil, 0
	v.probing, v.done = false, false
	v.minited = false
	v.table = nil
}

func (v *vecJoin) next() (*Batch, error) {
	if v.done {
		return nil, nil
	}
	out := v.out
	out.Reset()
	for {
		if err := v.c.cancel.check(); err != nil {
			return nil, err
		}
		if v.in == nil {
			b, err := v.child.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				v.done = true
				return v.flush(out)
			}
			v.in = b
			v.ipos = 0
			v.probing = false
		}
		if !v.probing {
			if v.ipos >= v.in.Len() {
				v.in = nil
				continue
			}
			if err := v.startProbe(); err != nil {
				return nil, err
			}
			v.probing = true
		}
		if full := v.drain(out); full {
			// Batch filled mid-probe: filter and emit; if every row was
			// filtered away, keep filling from where the probe stopped.
			if b := v.flushFull(out); b != nil {
				return b, nil
			}
			continue
		}
		v.probing = false
		v.ipos++
	}
}

// flush applies the stage filters to whatever accumulated and emits it;
// called once at input exhaustion.
func (v *vecJoin) flush(out *Batch) (*Batch, error) {
	applyVecFilters(v.c, out, v.fast, v.slow, &v.selbuf, &v.rowbuf)
	if out.Len() == 0 {
		return nil, nil
	}
	v.record(out)
	return out, nil
}

// flushFull filters a just-filled batch; nil means everything was
// rejected and the (now compacted) batch has room again.
func (v *vecJoin) flushFull(out *Batch) *Batch {
	applyVecFilters(v.c, out, v.fast, v.slow, &v.selbuf, &v.rowbuf)
	if out.Len() == 0 {
		return nil
	}
	v.record(out)
	return out
}

func (v *vecJoin) record(out *Batch) {
	if v.ts != nil {
		v.ts.rows.Add(int64(out.Len()))
		v.ts.batches.Add(1)
	}
}

// startProbe positions the stage's cursor for the current input row.
func (v *vecJoin) startProbe() error {
	switch v.kind {
	case opMerge:
		k := v.in.cols[v.joinSlot][v.ipos]
		if v.minited && k == v.mkey {
			v.rpos = v.runStart // same key as the previous row: re-emit the run
			return nil
		}
		start := 0
		if v.minited && k > v.mkey {
			start = v.runEnd // left keys are non-decreasing: gallop forward
		}
		idx := gallop(v.rng.Rows, start, v.lead, k)
		v.minited, v.mkey = true, k
		v.runStart, v.runEnd, v.rpos = idx, idx, idx
	case opHash:
		if err := v.buildTable(); err != nil {
			return err
		}
		v.cands = v.table.get(v.in.cols[v.joinSlot][v.ipos])
		v.cpos = 0
	default: // opNL
		var want store.EncTriple
		for i := 0; i < 3; i++ {
			if s := v.wantSlot[i]; s >= 0 {
				want[i] = v.in.cols[s][v.ipos]
			} else {
				want[i] = v.wantConst[i]
			}
		}
		rng := v.c.eng.src.Range(want[0], want[1], want[2])
		v.rows, v.filt, v.ord = rng.Rows, rng.Filt, rng.Ord
		v.rpos = 0
	}
	return nil
}

// drain emits the current probe's remaining candidates into out,
// reporting true when the batch filled before the probe finished.
func (v *vecJoin) drain(out *Batch) bool {
	switch v.kind {
	case opMerge:
		rows := v.rng.Rows
		for v.rpos < len(rows) {
			row := rows[v.rpos]
			if row[v.lead] != v.mkey {
				break
			}
			if out.Full() {
				return true
			}
			v.rpos++
			if passFilt(row, v.rng.Filt) {
				v.emit(out, unpermute(v.rng.Ord, row))
			}
		}
		v.runEnd = v.rpos
		return false
	case opHash:
		for v.cpos < len(v.cands) {
			if out.Full() {
				return true
			}
			t := v.cands[v.cpos]
			v.cpos++
			v.emit(out, t)
		}
		return false
	default: // opNL
		for v.rpos < len(v.rows) {
			if out.Full() {
				return true
			}
			row := v.rows[v.rpos]
			v.rpos++
			if passFilt(row, v.filt) {
				v.emit(out, unpermute(v.ord, row))
			}
		}
		return false
	}
}

// emit writes one extended row: upstream bindings are copied, the
// pattern's fresh variables are written from the candidate triple, and
// repeated components are equality-checked (term identity — the same
// dictionary-ID comparison the tuple backtracker's bind uses).
func (v *vecJoin) emit(out *Batch, t store.EncTriple) {
	n := out.n
	for _, s := range v.prevBound {
		out.cols[s][n] = v.in.cols[s][v.ipos]
	}
	for _, w := range v.writes {
		out.cols[w.slot][n] = t[w.comp]
	}
	for _, ck := range v.checks {
		if out.cols[ck.slot][n] != t[ck.comp] {
			return // conflicting repeated binding: drop the row
		}
	}
	out.n = n + 1
}

// buildTable materializes the hash stage's build side once per query.
func (v *vecJoin) buildTable() error {
	if v.table != nil {
		return nil
	}
	table := newIDTable[[]store.EncTriple](len(v.rng.Rows))
	it := v.rng.Iterator()
	n := 0
	for {
		t, ok := it.Next()
		if !ok {
			break
		}
		cell := table.at(t[v.keyPos])
		*cell = append(*cell, t)
		if n++; n&1023 == 0 {
			if err := v.c.cancel.check(); err != nil {
				return err
			}
		}
	}
	v.table = table
	if v.ts != nil {
		v.ts.build.Store(int64(n))
	}
	return nil
}

// buildVecLeftJoin covers the OPTIONAL shape the benchmark exercises
// (Q2): a single-pattern right side with no condition, probed per left
// row; rows with no compatible extension pass through unextended.
// Conditions and multi-pattern right sides go to the hash variant.
func (c *compiled) buildVecLeftJoin(node *algebra.LeftJoinNode) (vecOp, string) {
	if node.Cond != nil {
		return c.buildVecHashLeftJoin(node, false)
	}
	rbgp, ok := node.Right.(*algebra.BGPNode)
	if !ok || len(rbgp.Patterns) != 1 {
		return c.buildVecHashLeftJoin(node, false)
	}
	if !c.eng.opts.UseIndexes {
		return nil, "no index access path"
	}
	left, why := c.buildVecNode(node.Left)
	if left == nil {
		return nil, why
	}
	lj := &vecLeftJoin{c: c, child: left}
	p := rbgp.Patterns[0]
	for i, term := range []sparql.PatternTerm{p.S, p.P, p.O} {
		if term.IsVar {
			lj.step.pos[i] = patPos{isVar: true, slot: c.slot(term.Var)}
			lj.varComps = append(lj.varComps, compBind{comp: i, slot: c.slot(term.Var)})
			continue
		}
		id, found := c.eng.src.TermDict().Lookup(term.Term)
		if !found {
			lj.empty = true // right side can never match: all rows pass bare
			continue
		}
		lj.step.pos[i] = patPos{id: id}
	}
	n := &tnode{op: "leftjoin", detail: "vectorized", children: childTNodes(left)}
	return c.vwrap(lj, n), ""
}

// vecLeftJoin implements OPTIONAL over a single right-side pattern.
// Probe constraints come from the left row's bindings (unbound slots
// probe as wildcards — bind-join semantics, like the tuple path), and
// extension merges follow the tuple backtracker's term-identity rule.
type vecLeftJoin struct {
	c        *compiled
	child    vecOp
	step     patternStep
	varComps []compBind
	empty    bool // right pattern has a constant missing from the dictionary
	ts       *tstep
	out      *Batch

	in      *Batch
	ipos    int
	probing bool
	matched bool
	done    bool
	rows    []store.EncTriple
	filt    store.EncTriple
	ord     store.Order
	rpos    int
}

func (v *vecLeftJoin) open() {
	v.child.open()
	if v.out == nil {
		v.out = v.c.newBatch()
	}
	v.in, v.ipos = nil, 0
	v.probing, v.matched, v.done = false, false, false
}

func (v *vecLeftJoin) next() (*Batch, error) {
	if v.done {
		return nil, nil
	}
	out := v.out
	out.Reset()
	for {
		if err := v.c.cancel.check(); err != nil {
			return nil, err
		}
		if v.in == nil {
			b, err := v.child.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				v.done = true
				if out.Len() == 0 {
					return nil, nil
				}
				return out, nil
			}
			v.in = b
			v.ipos = 0
			v.probing = false
		}
		if !v.probing {
			if v.ipos >= v.in.Len() {
				v.in = nil
				continue
			}
			v.startProbe()
			v.probing = true
			v.matched = false
		}
		for v.rpos < len(v.rows) {
			if out.Full() {
				return out, nil
			}
			row := v.rows[v.rpos]
			v.rpos++
			if passFilt(row, v.filt) && v.emit(out, unpermute(v.ord, row), true) {
				v.matched = true
			}
		}
		if !v.matched {
			if out.Full() {
				return out, nil // resume here: probing stays true, rpos is spent
			}
			v.emit(out, store.EncTriple{}, false)
		}
		v.probing = false
		v.ipos++
	}
}

func (v *vecLeftJoin) startProbe() {
	if v.empty {
		v.rows, v.rpos = nil, 0
		return
	}
	var want store.EncTriple
	for i := 0; i < 3; i++ {
		p := v.step.pos[i]
		if p.isVar {
			want[i] = v.in.cols[p.slot][v.ipos] // NoID when unbound: wildcard
		} else {
			want[i] = p.id
		}
	}
	rng := v.c.eng.src.Range(want[0], want[1], want[2])
	v.rows, v.filt, v.ord = rng.Rows, rng.Filt, rng.Ord
	v.rpos = 0
}

// emit copies the whole left row (all slots, so union inputs with
// varying bound sets stay correct) and, when extending, merges the
// candidate triple under the term-identity compatibility rule.
func (v *vecLeftJoin) emit(out *Batch, t store.EncTriple, extend bool) bool {
	n := out.n
	for s := range out.cols {
		out.cols[s][n] = v.in.cols[s][v.ipos]
	}
	if extend {
		for _, vc := range v.varComps {
			cur := out.cols[vc.slot][n]
			if cur == store.NoID {
				out.cols[vc.slot][n] = t[vc.comp]
			} else if cur != t[vc.comp] {
				return false // incompatible extension: not a match
			}
		}
	}
	out.n = n + 1
	return true
}

// buildVecAntiJoin recognizes the closed-world-negation idiom (Q6/Q7):
// a FILTER whose conjuncts are all `!bound(?v)` directly over a left
// join whose BGP right side certainly binds every such ?v. A matched
// left row is then guaranteed to fail the filter, so the join can drop
// it internally — the first passing candidate short-circuits the probe
// and the matched extensions are never emitted at all. handled=false
// means the shape doesn't apply and the caller should compile the
// filter and the left join separately.
func (c *compiled) buildVecAntiJoin(f *algebra.FilterNode, lj *algebra.LeftJoinNode) (vecOp, bool, string) {
	rbgp, ok := lj.Right.(*algebra.BGPNode)
	if !ok {
		return nil, false, "" // only a BGP certainly binds its variables
	}
	certain := toSet(rbgp.Vars())
	for _, conj := range algebra.SplitConjuncts(f.Cond) {
		not, ok := conj.(*sparql.Not)
		if !ok {
			return nil, false, ""
		}
		b, ok := not.Inner.(*sparql.Bound)
		if !ok || !certain[b.Var] {
			return nil, false, ""
		}
	}
	op, why := c.buildVecHashLeftJoin(lj, true)
	if op == nil {
		return nil, false, why // fall back to leftjoin + filter
	}
	return op, true, ""
}

// buildVecHashLeftJoin covers the OPTIONAL shapes the single-pattern
// probe cannot: a condition, a multi-pattern right side, or both. It
// mirrors the tuple path's materialized hash left join — the right
// side must be uncorrelated, is evaluated once as its own vec
// pipeline, and is hashed by the canonical value key of an extracted
// `?l = ?r` conjunct; the key conjunct stays in the residual because
// segKey buckets may be coarser than `=`. With anti=true, matched left
// rows are dropped instead of extended (closed-world negation).
func (c *compiled) buildVecHashLeftJoin(node *algebra.LeftJoinNode, anti bool) (vecOp, string) {
	if !c.eng.opts.HashLeftJoins {
		return nil, "optional with condition needs hash left joins"
	}
	if !isUncorrelated(node.Right, node.Left.Vars(), nil) {
		return nil, "optional right side correlated with the left"
	}
	left, why := c.buildVecNode(node.Left)
	if left == nil {
		return nil, why
	}
	right, why := c.buildVecNode(node.Right)
	if right == nil {
		return nil, why
	}
	lj := &vecHashLeftJoin{c: c, left: left, right: right, anti: anti}
	lj.hashLeftSlot, lj.hashRightSlot = -1, -1
	for _, v := range node.Right.Vars() {
		lj.rightSlots = append(lj.rightSlots, c.slot(v))
	}
	if node.Cond != nil {
		leftVars := toSet(node.Left.Vars())
		rightVars := toSet(node.Right.Vars())
		conjs := algebra.SplitConjuncts(node.Cond)
		for _, conj := range conjs {
			if lk, rk, ok := equiJoinKey(conj, leftVars, rightVars); ok && lj.hashLeftSlot < 0 {
				lj.hashLeftSlot = c.slot(lk)
				lj.hashRightSlot = c.slot(rk)
				// No removal: the key conjunct STAYS in the residual as
				// the semantic check (see buildLeftJoin).
			}
		}
		lj.fast, lj.slow = c.compileFilters(conjs)
	}
	detail := "vectorized hash"
	if anti {
		detail = "vectorized hash anti"
	}
	c.notes = append(c.notes, fmt.Sprintf(
		"leftjoin: %s (hash key: %v)", detail, lj.hashLeftSlot >= 0))
	n := &tnode{op: "leftjoin", detail: detail, children: childTNodes(left, right)}
	return c.vwrap(lj, n), ""
}

// vecHashLeftJoin is OPTIONAL with an uncorrelated materialized right
// side: build the right pipeline's rows once (hashed by value key when
// one was extracted), then probe per left row, re-checking every
// condition conjunct on the merged row — fast slot comparisons via the
// shared cmpIDs core, the rest through the expression evaluator, type
// errors rejecting the candidate exactly like the tuple path. In anti
// mode the first passing candidate drops the left row and unmatched
// rows pass through bare.
type vecHashLeftJoin struct {
	c           *compiled
	left, right vecOp
	anti        bool

	hashLeftSlot, hashRightSlot int
	rightSlots                  []int
	fast                        []fastCmp
	slow                        []sparql.Expr
	out                         *Batch

	built   bool
	matRows [][]store.ID
	hash    map[string][][]store.ID

	in      *Batch
	ipos    int
	cands   [][]store.ID
	cpos    int
	probing bool
	matched bool
	done    bool
	scratch []store.ID
}

func (v *vecHashLeftJoin) open() {
	v.left.open()
	if v.out == nil {
		v.out = v.c.newBatch()
	}
	v.built = false
	v.matRows, v.hash = nil, nil
	v.in, v.ipos = nil, 0
	v.probing, v.done = false, false
}

// build drains the right pipeline once, materializing full-width rows.
// Rows with an unbound hash key are dropped: they could never satisfy
// the retained `=` conjunct (unbound comparison is a type error).
//
// sp2b:valuecmp the hash key implements FILTER `=` bucketing via segKey
func (v *vecHashLeftJoin) build() error {
	if v.built {
		return nil
	}
	v.built = true
	v.right.open()
	dict := v.c.eng.src.TermDict()
	if v.hashRightSlot >= 0 {
		v.hash = map[string][][]store.ID{}
	}
	for {
		b, err := v.right.next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		for r := 0; r < b.Len(); r++ {
			row := b.CopyRow(r, nil)
			if v.hashRightSlot >= 0 {
				key := row[v.hashRightSlot]
				if key == store.NoID {
					continue
				}
				k := segKey(dict.Term(key))
				v.hash[k] = append(v.hash[k], row)
			} else {
				v.matRows = append(v.matRows, row)
			}
		}
		if err := v.c.cancel.check(); err != nil {
			return err
		}
	}
}

// candidates returns the materialized rows worth probing for one left
// row.
//
// sp2b:valuecmp probes the value-keyed hash built by build
func (v *vecHashLeftJoin) candidates(leftRow []store.ID) [][]store.ID {
	if v.hashLeftSlot < 0 {
		return v.matRows
	}
	key := leftRow[v.hashLeftSlot]
	if key == store.NoID {
		return nil // unbound key: equality would be a type error
	}
	return v.hash[segKey(v.c.eng.src.TermDict().Term(key))]
}

// condPass evaluates every condition conjunct on the merged scratch
// row; a type error rejects, like filterIter.
func (v *vecHashLeftJoin) condPass() bool {
	for _, f := range v.fast {
		if !f.eval(v.c, v.scratch) {
			return false
		}
	}
	for _, f := range v.slow {
		ok, err := algebra.EvalBool(f, rowBinding{c: v.c, row: v.scratch})
		if err != nil || !ok {
			return false
		}
	}
	return true
}

func (v *vecHashLeftJoin) next() (*Batch, error) {
	if v.done {
		return nil, nil
	}
	if err := v.build(); err != nil {
		return nil, err
	}
	out := v.out
	out.Reset()
	for {
		if err := v.c.cancel.check(); err != nil {
			return nil, err
		}
		if v.in == nil {
			b, err := v.left.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				v.done = true
				if out.Len() == 0 {
					return nil, nil
				}
				return out, nil
			}
			v.in, v.ipos, v.probing = b, 0, false
		}
		if !v.probing {
			if v.ipos >= v.in.Len() {
				v.in = nil
				continue
			}
			// The left pipeline never writes the right-side slots, so the
			// copied row carries NoID there; each candidate only has to
			// overwrite those slots, and the bare emit resets them.
			v.scratch = v.in.CopyRow(v.ipos, v.scratch)
			v.cands = v.candidates(v.scratch)
			v.cpos, v.matched = 0, false
			v.probing = true
		}
		for v.cpos < len(v.cands) {
			if out.Full() {
				return out, nil // resume mid-probe: cpos holds the position
			}
			cand := v.cands[v.cpos]
			v.cpos++
			for _, s := range v.rightSlots {
				v.scratch[s] = cand[s]
			}
			if !v.condPass() {
				continue
			}
			v.matched = true
			if v.anti {
				v.cands = nil // first match drops the row; stop probing
				break
			}
			out.Append(v.scratch)
		}
		if !v.matched {
			if out.Full() {
				return out, nil // resume at the bare emit: cands are spent
			}
			for _, s := range v.rightSlots {
				v.scratch[s] = store.NoID
			}
			out.Append(v.scratch)
		}
		v.probing = false
		v.ipos++
	}
}

// vecFilter applies a FILTER over a non-BGP input (filters over BGPs
// are pushed into the pipeline stages instead).
type vecFilter struct {
	c      *compiled
	input  vecOp
	fast   []fastCmp
	slow   []sparql.Expr
	selbuf []int32
	rowbuf []store.ID
}

func (f *vecFilter) open() { f.input.open() }

func (f *vecFilter) next() (*Batch, error) {
	for {
		b, err := f.input.next()
		if b == nil || err != nil {
			return nil, err
		}
		applyVecFilters(f.c, b, f.fast, f.slow, &f.selbuf, &f.rowbuf)
		if b.Len() > 0 {
			return b, nil
		}
	}
}

// vecUnion drains the left input, then the right.
type vecUnion struct {
	left, right vecOp
	onRight     bool
}

func (u *vecUnion) open() {
	u.left.open()
	u.right.open()
	u.onRight = false
}

func (u *vecUnion) next() (*Batch, error) {
	if !u.onRight {
		b, err := u.left.next()
		if b != nil || err != nil {
			return b, err
		}
		u.onRight = true
	}
	return u.right.next()
}

// vecDistinct suppresses duplicate rows through the shared rowSet
// (distinct.go), marking first occurrences in the selection vector and
// compacting in place.
type vecDistinct struct {
	c      *compiled
	input  vecOp
	seen   rowSet
	selbuf []int32
}

func (d *vecDistinct) open() {
	d.input.open()
	d.seen.reset()
}

func (d *vecDistinct) next() (*Batch, error) {
	for {
		b, err := d.input.next()
		if b == nil || err != nil {
			return nil, err
		}
		if err := d.c.cancel.check(); err != nil {
			return nil, err
		}
		sel := d.seen.keepNew(b.cols, b.n, emptySel(d.selbuf))
		d.selbuf = sel
		b.SetSel(sel)
		b.Compact()
		if b.Len() > 0 {
			return b, nil
		}
	}
}

// vecOrder materializes and sorts its input (same comparator as the
// tuple orderIter), then re-emits batches.
type vecOrder struct {
	c     *compiled
	input vecOp
	keys  []orderKey
	out   *Batch
	rows  [][]store.ID
	pos   int
	built bool
}

func (o *vecOrder) open() {
	o.input.open()
	if o.out == nil {
		o.out = o.c.newBatch()
	}
	o.rows = nil
	o.pos = 0
	o.built = false
}

func (o *vecOrder) next() (*Batch, error) {
	if !o.built {
		for {
			b, err := o.input.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			for r := 0; r < b.Len(); r++ {
				o.rows = append(o.rows, b.CopyRow(r, nil))
			}
			if err := o.c.cancel.check(); err != nil {
				return nil, err
			}
		}
		sortRows(o.c, o.rows, o.keys)
		o.built = true
	}
	out := o.out
	out.Reset()
	for o.pos < len(o.rows) && !out.Full() {
		out.Append(o.rows[o.pos])
		o.pos++
	}
	if out.Len() == 0 {
		return nil, nil
	}
	return out, nil
}

// sortRows orders materialized rows by the compiled ORDER BY keys:
// SPARQL 1.0 ordering, unbound < blank < IRI < literal, numeric-aware.
func sortRows(c *compiled, rows [][]store.ID, keys []orderKey) {
	dict := c.eng.src.TermDict()
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for _, k := range keys {
			if k.slot < 0 {
				continue
			}
			av, bv := a[k.slot], b[k.slot]
			cmp := 0
			switch {
			case av == bv:
				continue
			case av == store.NoID:
				cmp = -1
			case bv == store.NoID:
				cmp = 1
			default:
				cmp = dict.Term(av).Compare(dict.Term(bv))
			}
			if cmp == 0 {
				continue
			}
			if k.desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
}

// vecSlice applies OFFSET/LIMIT batch-wise: whole batches are skipped
// while the offset lasts, the boundary batch is trimmed through the
// selection vector, and a mid-batch LIMIT truncates the dense batch.
type vecSlice struct {
	input   vecOp
	offset  int
	limit   int
	skipped int
	emitted int
	selbuf  []int32
}

func (s *vecSlice) open() {
	s.input.open()
	s.skipped = 0
	s.emitted = 0
}

func (s *vecSlice) next() (*Batch, error) {
	if s.limit >= 0 && s.emitted >= s.limit {
		return nil, nil // early exit: stop pulling the input entirely
	}
	for {
		b, err := s.input.next()
		if b == nil || err != nil {
			return nil, err
		}
		if s.skipped < s.offset {
			if remaining := s.offset - s.skipped; b.Len() <= remaining {
				s.skipped += b.Len()
				continue
			}
			drop := s.offset - s.skipped
			s.skipped = s.offset
			sel := emptySel(s.selbuf)
			for r := drop; r < b.Len(); r++ {
				sel = append(sel, int32(r))
			}
			s.selbuf = sel
			b.SetSel(sel)
			b.Compact()
		}
		if b.Len() == 0 {
			continue
		}
		if s.limit >= 0 && s.emitted+b.Len() > s.limit {
			b.Truncate(s.limit - s.emitted)
		}
		s.emitted += b.Len()
		return b, nil
	}
}
