package engine

// The physical-operator layer: per-step join operators chosen by the
// optimizer from the store's statistics (the Stocker et al. estimates
// reorder() already computes). The nested-loop backtracker of bgp.go
// remains the fallback; this file adds
//
//   - merge joins over two index ranges co-sorted on the shared variable
//     (the RDF-3X fast path over the SPO/POS/OSP permutations),
//   - hash joins that build on the smaller estimated side, both for
//     ordinary shared-variable steps and for disconnected trailing blocks
//     linked only by an equality FILTER (the Q4/Q5a shape, where a
//     nested loop is quadratic).
//
// Every choice is recorded in the compiled plan's notes, surfaced by
// Engine.Explain, sp2bquery -explain, and the harness JSON report.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sp2bench/internal/algebra"
	"sp2bench/internal/rdf"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

const (
	// hashJoinThreshold is the estimated input cardinality above which a
	// join step switches from index nested loop to hash: below it the
	// per-probe binary search is cheaper than building a table.
	hashJoinThreshold = 512
	// crossCacheCap bounds the estimated size of a keyless disconnected
	// block the planner is willing to materialize as a cached cross
	// product instead of re-deriving it per left row.
	crossCacheCap = 1 << 20
)

// opKind is the physical operator evaluating one depth of a BGP plan.
type opKind uint8

const (
	opScan    opKind = iota // depth 0: index range scan
	opNL                    // index nested-loop probe (the fallback)
	opMerge                 // merge join against a co-sorted index range
	opHash                  // hash probe into the pattern's matching triples
	opHashSeg               // hash probe into a materialized disconnected block
)

func (k opKind) String() string {
	switch k {
	case opScan:
		return "scan"
	case opNL:
		return "nl"
	case opMerge:
		return "merge"
	case opHash:
		return "hash"
	default:
		return "hashseg"
	}
}

// physStep is one depth of a physical BGP plan.
type physStep struct {
	kind opKind
	step patternStep // pattern + pushed filters (unused by opHashSeg)

	// opScan: the constant-prefix range.
	// opMerge: the range co-sorted on the join variable.
	// opHash: the constant-prefix range the build scans once.
	rng store.IndexRange

	joinSlot int // opMerge/opHash: slot of the shared variable
	keyPos   int // opHash: SPO position of the shared variable
	lead     int // opMerge: component position of the join var in rng's order

	seg *segPlan // opHashSeg

	// The step's pushed filter conjuncts, compiled: fast holds the
	// slot-resolved `?a OP ?b` comparisons, slow everything else.
	fast []fastCmp
	slow []sparql.Expr
}

// segPlan is a disconnected trailing block: evaluated once (it shares no
// variable with anything bound before it), materialized, and probed per
// left row — by equality key when a linking FILTER provides one, as a
// cached cross product otherwise.
type segPlan struct {
	steps       []patternStep
	linkFilters []sparql.Expr // conjuncts referencing outside vars, checked on merged rows
	buildSlot   int           // key slot within block rows (-1 = keyless)
	probeSlot   int           // key slot on the left stream (-1 = keyless)
	slots       []int         // slots the block binds, for backtrack clearing
}

// fastCmp is a filter conjunct of the shape `?a OP ?b` compiled to slot
// accesses: the per-row hot path skips the expression tree, the Binding
// interface, and its per-variable map lookups.
type fastCmp struct {
	op   sparql.BinaryOp
	l, r int
}

// sp2b:valuecmp implements FILTER comparison operators over slot pairs
func (f fastCmp) eval(c *compiled, row []store.ID) bool {
	return f.cmpIDs(c.eng.src.TermDict(), row[f.l], row[f.r])
}

// cmpIDs is the comparison core shared by the per-row eval above and
// the column kernels of the vectorized path (vec.go), which resolve
// dict once per batch rather than once per row.
//
// sp2b:valuecmp compares by term value, never by raw dictionary ID
func (f fastCmp) cmpIDs(dict store.TermSource, a, b store.ID) bool {
	if a == store.NoID || b == store.NoID {
		return false // unbound: the expression evaluator raises, FILTER rejects
	}
	switch f.op {
	case sparql.OpEq, sparql.OpNeq:
		// sp2b:idcmp=ok identical IDs are value-equal; only the not-equal branch falls through to EqualTerms
		if a == b {
			return f.op == sparql.OpEq
		}
		eq, err := algebra.EqualTerms(dict.Term(a), dict.Term(b))
		if err != nil {
			return false
		}
		return eq == (f.op == sparql.OpEq)
	default:
		ta, tb := dict.Term(a), dict.Term(b)
		var cmp int
		if ta.Kind == rdf.KindLiteral && tb.Kind == rdf.KindLiteral &&
			ta.Datatype == rdf.XSDString && tb.Datatype == rdf.XSDString {
			// Two xsd:string literals: not numeric, both string-ish, so
			// CompareTerms would compare the lexical forms. Do that
			// without wrapping both terms in algebra.Value.
			cmp = strings.Compare(ta.Value, tb.Value)
		} else {
			var err error
			if cmp, err = algebra.CompareTerms(ta, tb); err != nil {
				return false
			}
		}
		switch f.op {
		case sparql.OpLt:
			return cmp < 0
		case sparql.OpGt:
			return cmp > 0
		case sparql.OpLeq:
			return cmp <= 0
		default: // OpGeq
			return cmp >= 0
		}
	}
}

// compileFilters splits filter conjuncts into fast slot comparisons and
// the general remainder.
func (c *compiled) compileFilters(filters []sparql.Expr) ([]fastCmp, []sparql.Expr) {
	var fast []fastCmp
	var slow []sparql.Expr
	for _, f := range filters {
		bin, ok := f.(*sparql.Binary)
		if ok {
			switch bin.Op {
			case sparql.OpEq, sparql.OpNeq, sparql.OpLt, sparql.OpGt, sparql.OpLeq, sparql.OpGeq:
				lv, ok1 := bin.Left.(*sparql.VarExpr)
				rv, ok2 := bin.Right.(*sparql.VarExpr)
				if ok1 && ok2 {
					fast = append(fast, fastCmp{op: bin.Op, l: c.slot(lv.Name), r: c.slot(rv.Name)})
					continue
				}
			}
		}
		slow = append(slow, f)
	}
	return fast, slow
}

// idTable is a linear-probing open-addressing map from store.ID to V,
// sized once at build time. On the per-row probe path it beats the
// generic map: one multiply, a mask, and (almost always) one key
// comparison. NoID (never a valid key: variables are bound) marks empty
// slots.
type idTable[V any] struct {
	mask uint32
	keys []store.ID
	vals []V
}

func newIDTable[V any](capacity int) *idTable[V] {
	n := 8
	for n < 2*capacity {
		n <<= 1
	}
	t := &idTable[V]{mask: uint32(n - 1), keys: make([]store.ID, n), vals: make([]V, n)}
	for i := range t.keys {
		t.keys[i] = store.NoID
	}
	return t
}

// at returns the value cell for k, claiming an empty slot on first use.
func (t *idTable[V]) at(k store.ID) *V {
	i := (uint32(k) * 2654435761) & t.mask
	for {
		switch t.keys[i] {
		case k:
			return &t.vals[i]
		case store.NoID:
			t.keys[i] = k
			return &t.vals[i]
		}
		i = (i + 1) & t.mask
	}
}

// get returns the value stored under k, or V's zero value.
func (t *idTable[V]) get(k store.ID) V {
	i := (uint32(k) * 2654435761) & t.mask
	for {
		switch t.keys[i] {
		case k:
			return t.vals[i]
		case store.NoID:
			var zero V
			return zero
		}
		i = (i + 1) & t.mask
	}
}

// bgpPlan is the physical form of one BGP: ordered depths with chosen
// operators plus the lazily-built state (hash tables, materialized
// blocks) that outlives re-opens of the plan.
type bgpPlan struct {
	c      *compiled
	steps  []physStep
	shared *physShared
	// tsteps are the per-depth EXPLAIN ANALYZE counters, aligned with
	// steps (nil unless the query runs under WithAnalyze); test is the
	// cumulative cardinality estimate for the whole BGP.
	tsteps []*tstep
	test   float64
}

// physShared holds per-depth build products constructed at most once
// per query, on the first probe that needs them.
type physShared struct {
	built []bool
	hash  []*idTable[[]store.EncTriple] // opHash tables
	seg   []map[string][][]store.ID     // opHashSeg keyed tables (segKey buckets)
	rows  [][][]store.ID                // opHashSeg keyless row lists
}

func newPhysShared(n int) *physShared {
	return &physShared{
		built: make([]bool, n),
		hash:  make([]*idTable[[]store.EncTriple], n),
		seg:   make([]map[string][][]store.ID, n),
		rows:  make([][][]store.ID, n),
	}
}

// build runs f for depth d until it first succeeds; a failed build
// fails the query, so it is never retried in practice.
func (sh *physShared) build(d int, f func() error) error {
	if sh.built[d] {
		return nil
	}
	if err := f(); err != nil {
		return err
	}
	sh.built[d] = true
	return nil
}

// ordPos maps an index order's component position to the SPO position it
// holds: component i of an ord-ordered row is SPO component ordPos[ord][i].
var ordPos = [3][3]int{
	store.OrderSPO: {0, 1, 2},
	store.OrderPOS: {1, 2, 0},
	store.OrderOSP: {2, 0, 1},
}

// planBGP chooses a physical operator per join step. It returns nil when
// the BGP must stay on the nested-loop backtracker: engines without the
// physical layer, correlated BGPs (outer variables — they are re-opened
// per parent row and profit from plain index probes), unit and provably
// empty BGPs, or plans where no step earns a better operator.
func (c *compiled) planBGP(b *bgpIter, ordered []sparql.TriplePattern, outer []string) subplan {
	opts := c.eng.opts
	if !opts.UseIndexes || (!opts.HashJoins && !opts.MergeJoins) {
		return nil
	}
	if len(outer) > 0 || len(b.steps) == 0 || b.empty || len(ordered) != len(b.steps) {
		return nil
	}
	// With no outer variables, preFilters can only hold variable-free
	// conjuncts (FILTER(1 > 2) and friends), which bgpIter checks once at
	// open. The physical iterators do not evaluate them — keep such
	// degenerate BGPs on the backtracker rather than dropping the filter.
	if len(b.preFilters) > 0 {
		return nil
	}
	st := c.eng.src
	plan := &bgpPlan{c: c}
	bound := map[string]bool{}
	leftCard := 1.0
	sortSlot := -1
	interesting := false

	// traceStep records one depth's EXPLAIN ANALYZE skeleton (operator,
	// pattern, cumulative estimate); a no-op unless tracing is on.
	traceStep := func(op string, pattern string, est float64) {
		if c.trace != nil {
			plan.tsteps = append(plan.tsteps, &tstep{op: op, pattern: pattern, est: est})
		}
	}

	i := 0
	for i < len(b.steps) {
		step := b.steps[i]
		p := ordered[i]
		if i == 0 {
			rng := st.Range(constWant(step).Spread())
			ps := physStep{kind: opScan, step: step, rng: rng}
			sortSlot = leadVarSlot(step, rng)
			plan.steps = append(plan.steps, ps)
			leftCard = max(1, c.estimate(p, bound))
			traceStep(opScan.String(), p.String(), leftCard)
			addVars(bound, p)
			i++
			continue
		}
		shared := sharedBoundVars(p, bound)
		if len(shared) == 0 && len(p.Vars()) > 0 && len(bound) > 0 {
			// Disconnected block: find its extent, materialize + hash it.
			j := segmentEnd(ordered, i)
			segCard := c.blockEstimate(ordered[i:j], nil)
			if opts.HashJoins {
				if seg, ok := c.buildSegPlan(b.steps[i:j], ordered[i:j], bound, segCard); ok {
					plan.steps = append(plan.steps, physStep{kind: opHashSeg, seg: seg})
					interesting = true
					for k := i; k < j; k++ {
						addVars(bound, ordered[k])
					}
					leftCard *= max(1, segCard)
					traceStep(opHashSeg.String(), segDesc(c, seg), leftCard)
					i = j
					continue
				}
			}
			for k := i; k < j; k++ {
				plan.steps = append(plan.steps, physStep{kind: opNL, step: b.steps[k]})
				addVars(bound, ordered[k])
				traceStep(opNL.String(), ordered[k].String(), 0)
			}
			leftCard *= max(1, segCard)
			if c.trace != nil {
				plan.tsteps[len(plan.tsteps)-1].est = leftCard
			}
			i = j
			continue
		}
		est := c.estimate(p, bound)
		done := false
		if opts.MergeJoins && len(shared) == 1 {
			if ms, ok := c.mergeStep(step, shared[0], sortSlot); ok {
				plan.steps = append(plan.steps, ms)
				interesting = true
				done = true
			}
		}
		if !done && opts.HashJoins && len(shared) == 1 && leftCard >= hashJoinThreshold {
			if hs, ok := c.hashStep(step, shared[0], leftCard); ok {
				plan.steps = append(plan.steps, hs)
				interesting = true
				done = true
			}
		}
		if !done {
			plan.steps = append(plan.steps, physStep{kind: opNL, step: step})
		}
		leftCard *= max(1, est)
		traceStep(plan.steps[len(plan.steps)-1].kind.String(), p.String(), leftCard)
		addVars(bound, p)
		i++
	}

	if !interesting {
		return nil // plain nested loop: keep the proven backtracker
	}
	for i := range plan.steps {
		ps := &plan.steps[i]
		if ps.kind == opHashSeg {
			ps.fast, ps.slow = c.compileFilters(ps.seg.linkFilters)
		} else {
			ps.fast, ps.slow = c.compileFilters(ps.step.filters)
		}
	}
	plan.shared = newPhysShared(len(plan.steps))
	plan.test = leftCard
	c.notes = append(c.notes, plan.describe())
	return &physIter{plan: plan}
}

// segDesc renders a disconnected block for the trace: its hash key (or
// cross-product marker) and step count, matching describe()'s notation.
func segDesc(c *compiled, seg *segPlan) string {
	if seg.buildSlot >= 0 {
		return fmt.Sprintf("key=?%s/?%s steps=%d", c.names[seg.probeSlot], c.names[seg.buildSlot], len(seg.steps))
	}
	return fmt.Sprintf("cross steps=%d", len(seg.steps))
}

// describe renders the operator choices for Explain.
func (p *bgpPlan) describe() string {
	var b strings.Builder
	b.WriteString("bgp operators:")
	for _, ps := range p.steps {
		b.WriteByte(' ')
		b.WriteString(ps.kind.String())
		switch ps.kind {
		case opScan:
			fmt.Fprintf(&b, "[%s rows=%d", ps.rng.Ord, len(ps.rng.Rows))
			if s := leadVarSlot(ps.step, ps.rng); s >= 0 {
				fmt.Fprintf(&b, " sorted=?%s", p.c.names[s])
			}
			b.WriteByte(']')
		case opMerge:
			fmt.Fprintf(&b, "[?%s %s rows=%d]", p.c.names[ps.joinSlot], ps.rng.Ord, len(ps.rng.Rows))
		case opHash:
			fmt.Fprintf(&b, "[?%s build=%d]", p.c.names[ps.joinSlot], len(ps.rng.Rows))
		case opHashSeg:
			if ps.seg.buildSlot >= 0 {
				fmt.Fprintf(&b, "[key=?%s/?%s steps=%d]",
					p.c.names[ps.seg.probeSlot], p.c.names[ps.seg.buildSlot], len(ps.seg.steps))
			} else {
				fmt.Fprintf(&b, "[cross steps=%d]", len(ps.seg.steps))
			}
		}
	}
	return b.String()
}

// constTriple is a pattern's constant components, NoID elsewhere.
type constTriple [3]store.ID

func (t constTriple) Spread() (store.ID, store.ID, store.ID) { return t[0], t[1], t[2] }

func constWant(step patternStep) constTriple {
	want := constTriple{store.NoID, store.NoID, store.NoID}
	for i := 0; i < 3; i++ {
		if p := step.pos[i]; !p.isVar && !p.missing {
			want[i] = p.id
		}
	}
	return want
}

// leadVarSlot returns the slot of the variable an index-ordered scan of
// the range emits its rows sorted by: the first post-prefix component
// holding a variable, provided every component before it is constant
// (residual constants keep the remaining components sorted).
func leadVarSlot(step patternStep, rng store.IndexRange) int {
	for i := rng.Lead; i < 3; i++ {
		pp := step.pos[ordPos[rng.Ord][i]]
		if pp.isVar {
			return pp.slot
		}
		// A residual constant fixes this component; sortedness carries to
		// the next one.
	}
	return -1
}

// sharedBoundVars lists the pattern's variables already in bound, sorted.
func sharedBoundVars(p sparql.TriplePattern, bound map[string]bool) []string {
	var out []string
	for _, v := range p.Vars() {
		if bound[v] {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

func addVars(bound map[string]bool, p sparql.TriplePattern) {
	for _, v := range p.Vars() {
		bound[v] = true
	}
}

// segmentEnd grows the connected component of ordered[i] through the
// following patterns and returns the index one past its contiguous
// extent.
func segmentEnd(ordered []sparql.TriplePattern, i int) int {
	comp := map[string]bool{}
	addVars(comp, ordered[i])
	j := i + 1
	for j < len(ordered) {
		connects := false
		for _, v := range ordered[j].Vars() {
			if comp[v] {
				connects = true
			}
		}
		if !connects {
			break
		}
		addVars(comp, ordered[j])
		j++
	}
	return j
}

// mergeStep builds an opMerge depth when the step joins on exactly one
// bound variable, the left stream is sorted on it, and some index serves
// the pattern's constants as a prefix with the join variable as the first
// component after them.
func (c *compiled) mergeStep(step patternStep, joinVar string, sortSlot int) (physStep, bool) {
	vslot, ok := c.slots[joinVar]
	if !ok || sortSlot < 0 || vslot != sortSlot {
		return physStep{}, false
	}
	want := constWant(step)
	best := physStep{}
	bestLead := -1
	for _, ord := range []store.Order{store.OrderSPO, store.OrderPOS, store.OrderOSP} {
		lead := 0
		for lead < 3 && want[ordPos[ord][lead]] != store.NoID {
			lead++
		}
		if lead == 3 {
			return physStep{}, false // fully constant: nothing to merge on
		}
		pp := step.pos[ordPos[ord][lead]]
		if !pp.isVar || pp.slot != vslot {
			continue
		}
		if lead > bestLead {
			rng := c.eng.src.RangeIn(ord, want[0], want[1], want[2])
			best = physStep{kind: opMerge, step: step, rng: rng, joinSlot: vslot, lead: lead}
			bestLead = lead
		}
	}
	if bestLead < 0 {
		return physStep{}, false
	}
	return best, true
}

// hashStep builds an opHash depth: the pattern's matching triples are
// hashed on the shared variable once and probed per left row. It applies
// only when that build side is the smaller one — otherwise the index
// nested loop, which builds nothing and probes the (already sorted)
// index, is the better operator.
func (c *compiled) hashStep(step patternStep, joinVar string, leftCard float64) (physStep, bool) {
	vslot, ok := c.slots[joinVar]
	if !ok {
		return physStep{}, false
	}
	keyPos := -1
	for i := 0; i < 3; i++ {
		if pp := step.pos[i]; pp.isVar && pp.slot == vslot {
			keyPos = i
			break
		}
	}
	if keyPos < 0 {
		return physStep{}, false
	}
	want := constWant(step)
	buildCard := float64(c.eng.src.Count(want.Spread()))
	if buildCard == 0 || buildCard >= leftCard {
		return physStep{}, false
	}
	rng := c.eng.src.Range(want.Spread())
	return physStep{kind: opHash, step: step, rng: rng, joinSlot: vslot, keyPos: keyPos}, true
}

// buildSegPlan compiles a disconnected block into a segPlan. Filters
// attached to the block's steps are split: conjuncts confined to the
// block's variables stay internal (evaluated while materializing), the
// rest become link filters evaluated on merged rows — and an `?a = ?b`
// link with one side bound before the block supplies the hash key.
func (c *compiled) buildSegPlan(steps []patternStep, patterns []sparql.TriplePattern, bound map[string]bool, segCard float64) (*segPlan, bool) {
	segVars := map[string]bool{}
	for _, p := range patterns {
		addVars(segVars, p)
	}
	seg := &segPlan{buildSlot: -1, probeSlot: -1}
	for _, sp := range steps {
		internal := sp
		var link []sparql.Expr
		internal.filters, link = splitLinkFilters(sp.filters, segVars)
		for _, f := range link {
			if seg.buildSlot < 0 {
				if ls, bs, ok := segEquiKey(f, bound, segVars); ok {
					seg.probeSlot = c.slot(ls)
					seg.buildSlot = c.slot(bs)
					// The key conjunct stays a link filter too: hashing is
					// by term identity, the filter is the semantic check.
				}
			}
		}
		seg.linkFilters = append(seg.linkFilters, link...)
		seg.steps = append(seg.steps, internal)
	}
	if seg.buildSlot < 0 && segCard > crossCacheCap {
		return nil, false // keyless and huge: don't materialize
	}
	slotSet := map[int]bool{}
	for v := range segVars {
		slotSet[c.slot(v)] = true
	}
	for s := range slotSet {
		seg.slots = append(seg.slots, s)
	}
	sort.Ints(seg.slots)
	return seg, true
}

// splitLinkFilters splits a block's filter conjuncts into internal ones,
// whose variables all lie in the block and which can run while the block
// is built, and link ones, which need bindings from outside it and run
// on the merged rows.
func splitLinkFilters(filters []sparql.Expr, blockVars map[string]bool) (internal, link []sparql.Expr) {
	for _, f := range filters {
		if allIn(sparql.ExprVars(f), blockVars) {
			internal = append(internal, f)
		} else {
			link = append(link, f)
		}
	}
	return internal, link
}

// segEquiKey recognizes `?left = ?seg` conjuncts usable as the block's
// hash key: one side bound before the block, the other bound inside it.
func segEquiKey(e sparql.Expr, bound, segVars map[string]bool) (leftVar, segVar string, ok bool) {
	bin, isBin := e.(*sparql.Binary)
	if !isBin || bin.Op != sparql.OpEq {
		return "", "", false
	}
	lv, ok1 := bin.Left.(*sparql.VarExpr)
	rv, ok2 := bin.Right.(*sparql.VarExpr)
	if !ok1 || !ok2 {
		return "", "", false
	}
	switch {
	case bound[lv.Name] && segVars[rv.Name] && !segVars[lv.Name]:
		return lv.Name, rv.Name, true
	case bound[rv.Name] && segVars[lv.Name] && !segVars[rv.Name]:
		return rv.Name, lv.Name, true
	default:
		return "", "", false
	}
}

// physIter evaluates a physical BGP plan by backtracking, like bgpIter,
// but with a per-depth operator. The plan holds the lazily-built
// products; the cursors live here.
type physIter struct {
	plan *bgpPlan

	cur       []store.ID
	state     []physCursor
	bound     [][]int
	depth     int
	started   bool
	exhausted bool
}

// physCursor is the per-depth iteration state of one operator.
type physCursor struct {
	// opScan / opNL: an index-ordered row window with residual filter.
	// Probes re-slice the window per left row instead of allocating a
	// store.Iterator — the nested-loop probe path is allocation-free.
	rows []store.EncTriple
	filt store.EncTriple
	ord  store.Order
	pos  int
	// opMerge: galloping cursor memory, persistent across left rows
	inited   bool
	key      store.ID
	runStart int
	runEnd   int
	// opHash / opHashSeg candidates
	cands    []store.EncTriple
	segCands [][]store.ID
	cpos     int
}

func (b *physIter) open(parent []store.ID) {
	n := len(b.plan.c.names)
	if cap(b.cur) < n {
		b.cur = make([]store.ID, n)
	}
	b.cur = b.cur[:n]
	copy(b.cur, parent)
	for i := len(parent); i < n; i++ {
		b.cur[i] = store.NoID
	}
	if len(b.state) < len(b.plan.steps) {
		b.state = make([]physCursor, len(b.plan.steps))
		b.bound = make([][]int, len(b.plan.steps))
	}
	for i := range b.state {
		b.state[i] = physCursor{}
		b.bound[i] = b.bound[i][:0]
	}
	b.started = false
	b.exhausted = false
	b.depth = 0
}

func (b *physIter) next() ([]store.ID, bool, error) {
	if b.exhausted {
		return nil, false, nil
	}
	d := b.depth
	if !b.started {
		b.started = true
		d = 0
		if err := b.initCursor(0); err != nil {
			return nil, false, err
		}
	}
	last := len(b.plan.steps) - 1
	for d >= 0 {
		if err := b.plan.c.cancel.check(); err != nil {
			return nil, false, err
		}
		b.clearBound(d)
		ps := &b.plan.steps[d]
		st := &b.state[d]
		var bound bool
		if ps.kind == opHashSeg {
			row, ok := st.nextSeg()
			if !ok {
				d--
				continue
			}
			bound = b.bindRow(d, ps, row)
		} else {
			t, ok := b.advanceTriple(ps, st)
			if !ok {
				d--
				continue
			}
			bound = b.bind(d, ps, t)
		}
		if !bound {
			continue
		}
		if !b.filtersPass(ps) {
			continue
		}
		if ts := b.plan.tsteps; ts != nil {
			ts[d].rows.Add(1)
		}
		if d == last {
			b.depth = d
			return b.cur, true, nil
		}
		d++
		if err := b.initCursor(d); err != nil {
			return nil, false, err
		}
	}
	b.exhausted = true
	return nil, false, nil
}

// initCursor prepares iteration at depth d for the current left row,
// lazily building the depth's shared products on first use.
func (b *physIter) initCursor(d int) error {
	ps := &b.plan.steps[d]
	st := &b.state[d]
	switch ps.kind {
	case opScan:
		st.rows, st.filt, st.ord = ps.rng.Rows, ps.rng.Filt, ps.rng.Ord
		st.pos = 0
	case opNL:
		var want store.EncTriple
		for i := 0; i < 3; i++ {
			p := ps.step.pos[i]
			if p.isVar {
				want[i] = b.cur[p.slot]
			} else {
				want[i] = p.id
			}
		}
		rng := b.plan.c.eng.src.Range(want[0], want[1], want[2])
		st.rows, st.filt, st.ord = rng.Rows, rng.Filt, rng.Ord
		st.pos = 0
	case opMerge:
		k := b.cur[ps.joinSlot]
		if st.inited && k == st.key {
			st.pos = st.runStart // same key as the previous left row: re-emit
			return nil
		}
		start := 0
		if st.inited && k > st.key {
			start = st.runEnd // left keys are non-decreasing: gallop forward
		}
		idx := gallop(ps.rng.Rows, start, ps.lead, k)
		st.inited = true
		st.key = k
		st.runStart = idx
		st.runEnd = idx
		st.pos = idx
	case opHash:
		if err := b.buildHash(d, ps); err != nil {
			return err
		}
		st.cands = b.plan.shared.hash[d].get(b.cur[ps.joinSlot])
		st.cpos = 0
	case opHashSeg:
		if err := b.buildSeg(d, ps); err != nil {
			return err
		}
		if ps.seg.buildSlot >= 0 {
			dict := b.plan.c.eng.src.TermDict()
			st.segCands = b.plan.shared.seg[d][segKey(dict.Term(b.cur[ps.seg.probeSlot]))]
		} else {
			st.segCands = b.plan.shared.rows[d]
		}
		st.cpos = 0
	}
	return nil
}

// advanceTriple yields the next candidate triple (SPO order) at a
// non-segment depth.
func (b *physIter) advanceTriple(ps *physStep, st *physCursor) (store.EncTriple, bool) {
	switch ps.kind {
	case opScan, opNL:
		for st.pos < len(st.rows) {
			row := st.rows[st.pos]
			st.pos++
			if passFilt(row, st.filt) {
				return unpermute(st.ord, row), true
			}
		}
		return store.EncTriple{}, false
	case opMerge:
		rows := ps.rng.Rows
		for st.pos < len(rows) {
			row := rows[st.pos]
			if row[ps.lead] != st.key {
				break
			}
			st.pos++
			if passFilt(row, ps.rng.Filt) {
				return unpermute(ps.rng.Ord, row), true
			}
		}
		st.runEnd = st.pos
		return store.EncTriple{}, false
	default: // opHash
		for st.cpos < len(st.cands) {
			t := st.cands[st.cpos]
			st.cpos++
			return t, true
		}
		return store.EncTriple{}, false
	}
}

func (st *physCursor) nextSeg() ([]store.ID, bool) {
	if st.cpos < len(st.segCands) {
		row := st.segCands[st.cpos]
		st.cpos++
		return row, true
	}
	return nil, false
}

// bind writes t's components into the variables of depth d's pattern,
// failing on conflicts exactly like the nested-loop backtracker.
func (b *physIter) bind(d int, ps *physStep, t store.EncTriple) bool {
	for i := 0; i < 3; i++ {
		p := ps.step.pos[i]
		if !p.isVar {
			continue
		}
		if cur := b.cur[p.slot]; cur != store.NoID {
			if cur != t[i] {
				return false
			}
			continue
		}
		b.cur[p.slot] = t[i]
		b.bound[d] = append(b.bound[d], p.slot)
	}
	return true
}

// bindRow merges a materialized block row into the current row. The
// block's variables are disjoint from everything bound before it, so
// conflicts cannot arise; the check is kept for defense.
func (b *physIter) bindRow(d int, ps *physStep, row []store.ID) bool {
	for _, slot := range ps.seg.slots {
		v := row[slot]
		if v == store.NoID {
			continue
		}
		if cur := b.cur[slot]; cur != store.NoID {
			if cur != v {
				return false
			}
			continue
		}
		b.cur[slot] = v
		b.bound[d] = append(b.bound[d], slot)
	}
	return true
}

func (b *physIter) clearBound(d int) {
	for _, slot := range b.bound[d] {
		b.cur[slot] = store.NoID
	}
	b.bound[d] = b.bound[d][:0]
}

func (b *physIter) filtersPass(ps *physStep) bool {
	for _, f := range ps.fast {
		if !f.eval(b.plan.c, b.cur) {
			return false
		}
	}
	for _, f := range ps.slow {
		v, err := algebra.EvalBool(f, rowBinding{c: b.plan.c, row: b.cur})
		if err != nil || !v {
			return false
		}
	}
	return true
}

// buildHash materializes an opHash depth's table: the pattern's matching
// triples keyed by the shared variable's component.
func (b *physIter) buildHash(d int, ps *physStep) error {
	return b.plan.shared.build(d, func() error {
		table := newIDTable[[]store.EncTriple](len(ps.rng.Rows))
		it := ps.rng.Iterator()
		n := 0
		for {
			t, ok := it.Next()
			if !ok {
				break
			}
			cell := table.at(t[ps.keyPos])
			*cell = append(*cell, t)
			if n++; n&1023 == 0 {
				if err := b.plan.c.cancel.check(); err != nil {
					return err
				}
			}
		}
		b.plan.shared.hash[d] = table
		if ts := b.plan.tsteps; ts != nil {
			ts[d].build.Store(int64(n))
		}
		return nil
	})
}

// buildSeg materializes an opHashSeg depth's block by running the
// nested-loop backtracker over the block's steps (they are uncorrelated:
// disconnected from everything bound outside), then hashing the rows on
// the build key when one exists.
func (b *physIter) buildSeg(d int, ps *physStep) error {
	return b.plan.shared.build(d, func() error {
		c := b.plan.c
		inner := &bgpIter{c: c, steps: ps.seg.steps}
		inner.open(make([]store.ID, len(c.names)))
		var rows [][]store.ID
		table := map[string][][]store.ID{}
		dict := c.eng.src.TermDict()
		built := 0
		for {
			row, ok, err := inner.next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			cp := append([]store.ID(nil), row...)
			built++
			if ps.seg.buildSlot >= 0 {
				k := segKey(dict.Term(cp[ps.seg.buildSlot]))
				table[k] = append(table[k], cp)
			} else {
				rows = append(rows, cp)
			}
		}
		b.plan.shared.seg[d] = table
		b.plan.shared.rows[d] = rows
		if ts := b.plan.tsteps; ts != nil {
			ts[d].build.Store(int64(built))
		}
		return nil
	})
}

func passFilt(row, filt store.EncTriple) bool {
	return (filt[0] == store.NoID || row[0] == filt[0]) &&
		(filt[1] == store.NoID || row[1] == filt[1]) &&
		(filt[2] == store.NoID || row[2] == filt[2])
}

// gallop returns the first index >= start whose row has component
// comp >= key, by exponential then binary search — the merge cursor's
// forward advance.
func gallop(rows []store.EncTriple, start, comp int, key store.ID) int {
	n := len(rows)
	if start >= n || rows[start][comp] >= key {
		return start
	}
	step := 1
	lo := start
	hi := start + step
	for hi < n && rows[hi][comp] < key {
		lo = hi
		step *= 2
		hi = start + step
	}
	if hi > n {
		hi = n
	}
	return lo + sort.Search(hi-lo, func(i int) bool { return rows[lo+i][comp] >= key })
}

// segKey buckets a term compatibly with the expression evaluator's
// value equality (valueEqual): whenever FILTER (?a = ?b) would accept
// two terms, they land in the same bucket — numeric literals (typed or
// plain, including numeric-looking xsd:strings, which are value-equal
// to the plain literal of the same form) by numeric value, other
// string-ish literals by lexical form, everything else by term
// identity. Buckets may be coarser than equality; the retained link
// filter is the semantic check, so over-inclusion costs a probe, never
// a wrong row. Hashing by dictionary ID instead would silently DROP
// value-equal pairs with distinct lexical forms ("1" vs "01") — an
// under-inclusion no residual filter could repair.
func segKey(t rdf.Term) string {
	if t.IsLiteral() {
		if n, ok := t.Numeric(); ok {
			return "n:" + strconv.FormatFloat(n, 'g', -1, 64)
		}
		if t.Datatype == "" || t.Datatype == rdf.XSDString {
			if n, ok := rdf.Literal(t.Value).Numeric(); ok {
				return "n:" + strconv.FormatFloat(n, 'g', -1, 64)
			}
			return "s:" + t.Value
		}
	}
	return "i:" + strconv.Itoa(int(t.Kind)) + ":" + t.Value + "\x00" + t.Datatype + "\x00" + t.Lang
}

// unpermute maps an index-ordered row back to SPO component order.
func unpermute(ord store.Order, row store.EncTriple) store.EncTriple {
	var t store.EncTriple
	for i := 0; i < 3; i++ {
		t[ordPos[ord][i]] = row[i]
	}
	return t
}
