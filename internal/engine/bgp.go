package engine

import (
	"sp2bench/internal/algebra"
	"sp2bench/internal/sparql"
	"sp2bench/internal/store"
)

// patPos is one compiled position (S, P or O) of a triple pattern step.
type patPos struct {
	isVar   bool
	slot    int      // slot of the variable, when isVar
	id      store.ID // interned constant, when !isVar
	missing bool     // constant term absent from the dictionary
}

// patternStep is one triple pattern with the filter conjuncts evaluated
// immediately after it binds (filter pushing).
type patternStep struct {
	pos     [3]patPos
	filters []sparql.Expr
}

// bgpIter evaluates a basic graph pattern by backtracking over the
// pattern steps: an index-nested-loop join under the native configuration,
// a scan-nested-loop join under the in-memory configuration.
type bgpIter struct {
	c     *compiled
	steps []patternStep
	// preFilters have all their variables outside the BGP; they are
	// checked once against the parent row.
	preFilters []sparql.Expr
	// unitFilters apply when the BGP has no patterns at all.
	unitFilters []sparql.Expr
	empty       bool // some constant is missing from the dictionary

	// tsteps are the per-depth EXPLAIN ANALYZE counters (nil unless the
	// query runs under WithAnalyze); test is the planner's cumulative
	// cardinality estimate for the whole BGP.
	tsteps []*tstep
	test   float64

	cur         []store.ID
	state       []stepCursor
	bound       [][]int // slots bound at each depth
	depth       int
	started     bool
	exhausted   bool
	unitEmitted bool
	preOK       bool
}

// stepCursor is the per-depth iteration state: either a store index
// iterator or a raw scan with residual component constraints.
type stepCursor struct {
	it      *store.Iterator
	scan    []store.EncTriple
	pos     int
	useScan bool
	want    store.EncTriple
}

func (b *bgpIter) open(parent []store.ID) {
	if cap(b.cur) < len(b.c.names) {
		b.cur = make([]store.ID, len(b.c.names))
	}
	b.cur = b.cur[:len(b.c.names)]
	copy(b.cur, parent)
	for i := len(parent); i < len(b.cur); i++ {
		b.cur[i] = store.NoID
	}
	b.started = false
	b.exhausted = false
	b.unitEmitted = false
	b.depth = 0
	b.preOK = true
	for _, f := range b.preFilters {
		v, err := algebra.EvalBool(f, rowBinding{c: b.c, row: b.cur})
		if err != nil || !v {
			b.preOK = false
			return
		}
	}
}

func (b *bgpIter) next() ([]store.ID, bool, error) {
	if b.empty || !b.preOK || b.exhausted {
		return nil, false, nil
	}
	if len(b.steps) == 0 {
		if b.unitEmitted {
			return nil, false, nil
		}
		b.unitEmitted = true
		for _, f := range b.unitFilters {
			v, err := algebra.EvalBool(f, rowBinding{c: b.c, row: b.cur})
			if err != nil || !v {
				return nil, false, nil
			}
		}
		return b.cur, true, nil
	}
	d := b.depth
	if !b.started {
		b.started = true
		d = 0
		b.initCursor(0)
	}
	last := len(b.steps) - 1
	for d >= 0 {
		if err := b.c.cancel.check(); err != nil {
			return nil, false, err
		}
		b.clearBound(d)
		t, ok, err := b.advance(d)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			d--
			continue
		}
		if !b.bind(d, t) {
			continue
		}
		if !b.stepFiltersPass(d) {
			continue
		}
		if b.tsteps != nil {
			b.tsteps[d].rows.Add(1)
		}
		if d == last {
			b.depth = d
			return b.cur, true, nil
		}
		d++
		b.initCursor(d)
	}
	b.exhausted = true
	return nil, false, nil
}

// initCursor prepares iteration at depth d given the current bindings.
func (b *bgpIter) initCursor(d int) {
	if len(b.state) < len(b.steps) {
		b.state = make([]stepCursor, len(b.steps))
		b.bound = make([][]int, len(b.steps))
	}
	step := &b.steps[d]
	var want store.EncTriple
	for i := 0; i < 3; i++ {
		p := step.pos[i]
		if p.isVar {
			want[i] = b.cur[p.slot] // NoID when unbound
		} else {
			want[i] = p.id
		}
	}
	st := &b.state[d]
	st.want = want
	if b.c.eng.opts.UseIndexes {
		st.useScan = false
		st.it = b.c.eng.src.Iterate(want[0], want[1], want[2])
	} else {
		st.useScan = true
		st.scan = b.c.eng.src.Triples()
		st.pos = 0
	}
}

// advance yields the next triple matching the cursor's constraints.
func (b *bgpIter) advance(d int) (store.EncTriple, bool, error) {
	st := &b.state[d]
	if !st.useScan {
		t, ok := st.it.Next()
		return t, ok, nil
	}
	for st.pos < len(st.scan) {
		if err := b.c.cancel.check(); err != nil {
			return store.EncTriple{}, false, err
		}
		t := st.scan[st.pos]
		st.pos++
		if (st.want[0] == store.NoID || t[0] == st.want[0]) &&
			(st.want[1] == store.NoID || t[1] == st.want[1]) &&
			(st.want[2] == store.NoID || t[2] == st.want[2]) {
			return t, true, nil
		}
	}
	return store.EncTriple{}, false, nil
}

// bind writes t's components into the variables of step d. It fails when
// the same variable occurs at several positions of the pattern with
// conflicting values; partially recorded bindings are undone by the
// clearBound call at the top of the search loop.
func (b *bgpIter) bind(d int, t store.EncTriple) bool {
	step := &b.steps[d]
	for i := 0; i < 3; i++ {
		p := step.pos[i]
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

func (b *bgpIter) clearBound(d int) {
	for _, slot := range b.bound[d] {
		b.cur[slot] = store.NoID
	}
	b.bound[d] = b.bound[d][:0]
}

func (b *bgpIter) stepFiltersPass(d int) bool {
	for _, f := range b.steps[d].filters {
		v, err := algebra.EvalBool(f, rowBinding{c: b.c, row: b.cur})
		if err != nil || !v {
			return false
		}
	}
	return true
}

// buildBGP compiles a BGP, optionally reordering its patterns and placing
// the given filter conjuncts (nil when the BGP has no governing FILTER).
func (c *compiled) buildBGP(patterns []sparql.TriplePattern, conjuncts []sparql.Expr, outer []string) (subplan, error) {
	b, ordered := c.prepareBGP(patterns, conjuncts, outer)
	// The physical-operator layer upgrades join steps (merge/hash joins)
	// when the engine options enable it; the backtracker above stays the
	// fallback.
	if phys := c.planBGP(b, ordered, outer); phys != nil {
		return phys, nil
	}
	if c.trace != nil {
		b.tsteps, b.test = c.fallbackTraceSteps(ordered, outer)
	}
	return b, nil
}

// prepareBGP performs the logical half of BGP compilation — pattern
// reordering, constant interning, filter conjunct placement — shared by
// the tuple path (buildBGP) and the vectorized pipeline (buildVecBGP).
func (c *compiled) prepareBGP(patterns []sparql.TriplePattern, conjuncts []sparql.Expr, outer []string) (*bgpIter, []sparql.TriplePattern) {
	ordered := patterns
	if c.eng.opts.ReorderPatterns && len(patterns) > 1 {
		ordered = c.reorder(patterns, outer)
	}
	b := &bgpIter{c: c}
	bgpVars := map[string]bool{}
	for _, p := range ordered {
		for _, v := range p.Vars() {
			bgpVars[v] = true
		}
	}
	for _, p := range ordered {
		var step patternStep
		for i, term := range []sparql.PatternTerm{p.S, p.P, p.O} {
			if term.IsVar {
				step.pos[i] = patPos{isVar: true, slot: c.slot(term.Var)}
				continue
			}
			id, ok := c.eng.src.TermDict().Lookup(term.Term)
			if !ok {
				step.pos[i] = patPos{missing: true}
				b.empty = true
				continue
			}
			step.pos[i] = patPos{id: id}
		}
		b.steps = append(b.steps, step)
	}

	// Filter placement.
	outerOnly := map[string]bool{}
	for _, v := range outer {
		if !bgpVars[v] {
			outerOnly[v] = true
		}
	}
	var residual []sparql.Expr
	for _, conj := range conjuncts {
		vars := sparql.ExprVars(conj)
		if len(b.steps) == 0 {
			b.unitFilters = append(b.unitFilters, conj)
			continue
		}
		if allIn(vars, outerOnly) {
			b.preFilters = append(b.preFilters, conj)
			continue
		}
		at := c.placement(b.steps, ordered, vars, outerOnly)
		if at < 0 {
			residual = append(residual, conj)
			continue
		}
		b.steps[at].filters = append(b.steps[at].filters, conj)
	}
	// Conjuncts that no step can cover (variables bound nowhere) behave
	// like end-of-BGP filters: attach them to the last step.
	if len(residual) > 0 && len(b.steps) > 0 {
		last := len(b.steps) - 1
		b.steps[last].filters = append(b.steps[last].filters, residual...)
	}
	return b, ordered
}

// fallbackTraceSteps builds the per-depth EXPLAIN ANALYZE counters for
// the nested-loop backtracker, pairing each depth with the optimizer's
// cumulative cardinality estimate (the same chain planBGP walks).
func (c *compiled) fallbackTraceSteps(ordered []sparql.TriplePattern, outer []string) ([]*tstep, float64) {
	bound := map[string]bool{}
	for _, v := range outer {
		bound[v] = true
	}
	steps := make([]*tstep, len(ordered))
	leftCard := 1.0
	for i, p := range ordered {
		op := "nl"
		if i == 0 && len(outer) == 0 {
			op = "scan"
		}
		leftCard *= max(1, c.estimate(p, bound))
		steps[i] = &tstep{op: op, pattern: p.String(), est: leftCard}
		addVars(bound, p)
	}
	return steps, leftCard
}

// placement returns the earliest step index after which every variable of
// the conjunct is certainly bound, or -1 if no step achieves that.
//
// Pushing is safe for any conjunct, including bound() calls: within a BGP
// a pattern variable is bound in every complete solution, so a conjunct
// evaluated as soon as all its variables are bound yields the same verdict
// it would at the end of the group. Filters whose scope interacts with
// OPTIONAL never reach this path — they become LeftJoin conditions during
// translation.
func (c *compiled) placement(steps []patternStep, ordered []sparql.TriplePattern, vars []string, outerOnly map[string]bool) int {
	if !c.eng.opts.PushFilters {
		return len(steps) - 1
	}
	need := map[string]bool{}
	for _, v := range vars {
		if !outerOnly[v] {
			need[v] = true
		}
	}
	if len(need) == 0 {
		return 0
	}
	for i, p := range ordered {
		for _, v := range p.Vars() {
			delete(need, v)
		}
		if len(need) == 0 {
			return i
		}
	}
	return -1
}

func allIn(vars []string, set map[string]bool) bool {
	for _, v := range vars {
		if !set[v] {
			return false
		}
	}
	return true
}
