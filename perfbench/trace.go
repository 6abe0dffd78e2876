package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sp2bench/internal/rdf"
	"sp2bench/internal/store"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer started; Op is the ID of the root span of the
// operation the span belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Rows   int    `json:"rows,omitempty"`
}

// openSpan is a span still in progress.
type openSpan struct {
	id, op int64
	name   string
	stat   *counters
	parent *openSpan
	start  time.Time
}

// nameStat is a snapshot of every span of one name, kept or dropped.
type nameStat struct {
	Calls   int64 `json:"calls"`
	TotalNS int64 `json:"total_ns"`
	ChildNS int64 `json:"child_ns"`
	Rows    int64 `json:"rows"`
}

// counters aggregate the spans of one name.
type counters struct {
	calls, totalNS, childNS, rows atomic.Int64
}

// spanLimit caps the spans a tracer keeps; later spans still count in
// the per-name aggregates.
const spanLimit = 200_000

// tracer keeps spans in memory up to a cap and aggregates all of them
// by name. Benchmark-side spans nest on one goroutine (begin/end);
// calls through the timing readers attach to the innermost open
// benchmark span, or to the shard call in flight for per-shard calls.
// Parents are therefore exact for sequential execution and, when the
// engine runs a parallel scan, attributed to the enclosing execution.
type tracer struct {
	t0     time.Time
	limit  int
	nextID atomic.Int64
	kept   atomic.Int64
	drops  atomic.Int64

	mu    sync.Mutex
	spans []span
	names map[string]*counters
	dict  map[string]*atomic.Int64 // dictionary calls by layer

	cur      atomic.Pointer[openSpan]
	shardCur atomic.Pointer[openSpan]
}

func newTracer(limit int) *tracer {
	return &tracer{t0: time.Now(), limit: limit, names: map[string]*counters{}, dict: map[string]*atomic.Int64{}}
}

// counter returns the aggregate of one span name; callers on hot paths
// look it up once and keep it.
func (t *tracer) counter(name string) *counters {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.names[name]
	if c == nil {
		c = &counters{}
		t.names[name] = c
	}
	return c
}

// dictCalls returns the dictionary call counter of a layer.
func (t *tracer) dictCalls(layer string) *atomic.Int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.dict[layer]
	if c == nil {
		c = &atomic.Int64{}
		t.dict[layer] = c
	}
	return c
}

// open starts a span under parent.
func (t *tracer) open(name string, c *counters, parent *openSpan, start time.Time) *openSpan {
	o := &openSpan{id: t.nextID.Add(1), name: name, stat: c, parent: parent, start: start}
	if parent != nil {
		o.op = parent.op
	} else {
		o.op = o.id
	}
	return o
}

// begin opens a benchmark-side span under the innermost open one; a
// span with no open parent is the root of a new operation.
func (t *tracer) begin(name string) *openSpan {
	o := t.open(name, t.counter(name), t.cur.Load(), time.Now())
	t.cur.Store(o)
	return o
}

// end closes a span opened by begin and returns its duration.
func (t *tracer) end(o *openSpan) time.Duration {
	t.cur.Store(o.parent)
	return t.close(o, 0)
}

// close records o as ended now.
func (t *tracer) close(o *openSpan, rows int) time.Duration {
	return t.record(o.id, o.name, o.stat, o.parent, o.op, o.start, time.Now(), rows)
}

func (t *tracer) record(id int64, name string, c *counters, parent *openSpan, op int64, start, end time.Time, rows int) time.Duration {
	d := end.Sub(start)
	c.calls.Add(1)
	c.totalNS.Add(int64(d))
	c.rows.Add(int64(rows))
	var pid int64
	if parent != nil {
		pid = parent.id
		parent.stat.childNS.Add(int64(d))
	}
	if t.kept.Load() >= int64(t.limit) {
		t.drops.Add(1)
		return d
	}
	if id == 0 {
		id = t.nextID.Add(1)
	}
	t.mu.Lock()
	if len(t.spans) < t.limit {
		t.spans = append(t.spans, span{ID: id, Parent: pid, Op: op,
			Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Rows: rows})
		t.kept.Add(1)
	} else {
		t.drops.Add(1)
	}
	t.mu.Unlock()
	return d
}

func (t *tracer) stat(name string) nameStat {
	t.mu.Lock()
	c := t.names[name]
	t.mu.Unlock()
	if c == nil {
		return nameStat{}
	}
	return nameStat{c.calls.Load(), c.totalNS.Load(), c.childNS.Load(), c.rows.Load()}
}

// layerSelf sums the self time (duration minus time covered by child
// spans) of every span name in a layer, keyed by the name's prefix
// before the first dot.
func (t *tracer) layerSelf() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]time.Duration{}
	for name, c := range t.names {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += time.Duration(max(c.totalNS.Load()-c.childNS.Load(), 0))
	}
	return out
}

// coverage is the share of operation wall time that child spans cover.
func (t *tracer) coverage() float64 {
	op := t.stat("op")
	if op.TotalNS == 0 {
		return 0
	}
	return float64(op.ChildNS) / float64(op.TotalNS)
}

// summary is the per-name and per-layer breakdown written to the report.
func (t *tracer) summary() map[string]any {
	t.mu.Lock()
	var keys []string
	for k := range t.names {
		keys = append(keys, k)
	}
	kept, dropped := len(t.spans), t.drops.Load()
	dict := map[string]int64{}
	for k, v := range t.dict {
		dict[k] = v.Load()
	}
	t.mu.Unlock()
	names := map[string]nameStat{}
	for _, k := range keys {
		names[k] = t.stat(k)
	}
	self := map[string]float64{}
	for k, v := range t.layerSelf() {
		self[k] = ms(v)
	}
	return map[string]any{
		"spans_kept":    kept,
		"spans_dropped": dropped,
		"by_name":       names,
		"dict_calls":    dict,
		"layer_self_ms": self,
		"coverage":      t.coverage(),
	}
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTable renders layer self times, largest first.
func selfTable(self map[string]time.Duration, wall time.Duration) string {
	type kv struct {
		k string
		v time.Duration
	}
	var rows []kv
	for k, v := range self {
		rows = append(rows, kv{k, v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s=%.2fms(%.1f%%) ", r.k, ms(r.v), 100*float64(r.v)/float64(max(wall, 1)))
	}
	return strings.TrimSpace(b.String())
}

// timedReader is a store.Reader that times and counts every call into
// the Reader it wraps, as spans of one layer ("store", "mvcc" or
// "shard"). The engine reads through it unchanged.
type timedReader struct {
	in    store.Reader
	tr    *tracer
	layer string
	shard bool     // calls are shard-level: per-shard calls made meanwhile attach to them
	log   *callLog // when set, RangeIn calls are recorded for replay
	dict  timedDict

	rangeIn, iterate, count, stats, triples *counters
}

func newTimedReader(in store.Reader, tr *tracer, layer string) store.Reader {
	r := &timedReader{in: in, tr: tr, layer: layer,
		rangeIn: tr.counter(layer + ".RangeIn"), iterate: tr.counter(layer + ".Iterate"),
		count: tr.counter(layer + ".Count"), stats: tr.counter(layer + ".stats"),
		triples: tr.counter(layer + ".Triples")}
	r.dict = timedDict{in: in.TermDict(), calls: tr.dictCalls(layer)}
	if sc, ok := in.(interface{ ShardCount() int }); ok {
		r.shard = true
		return &timedShardReader{timedReader: r, n: sc.ShardCount()}
	}
	return r
}

// timedShardReader keeps the shard count visible, so the engine's
// scatter-aware planning sees the same source it would unwrapped.
type timedShardReader struct {
	*timedReader
	n int
}

func (r *timedShardReader) ShardCount() int { return r.n }

// call is one reader call in progress. Leaf calls allocate nothing;
// only a shard-level call opens a span its per-shard calls attach to.
type call struct {
	c      *counters
	name   string
	parent *openSpan
	start  time.Time
	span   *openSpan // shard level only
	prev   *openSpan // shard level: the shard call this one replaced
}

// enter starts a call. Per-shard calls attach to the shard call in
// flight; a shard-level call becomes that parent until it returns.
func (r *timedReader) enter(name string, c *counters) call {
	parent := r.tr.cur.Load()
	if !r.shard {
		if sp := r.tr.shardCur.Load(); sp != nil {
			parent = sp
		}
		return call{c: c, name: name, parent: parent, start: time.Now()}
	}
	o := r.tr.open(name, c, parent, time.Now())
	return call{span: o, prev: r.tr.shardCur.Swap(o)}
}

func (r *timedReader) exit(c call, rows int) {
	if c.span != nil {
		r.tr.shardCur.Store(c.prev)
		r.tr.close(c.span, rows)
		return
	}
	var op int64
	if c.parent != nil {
		op = c.parent.op
	}
	r.tr.record(0, c.name, c.c, c.parent, op, c.start, time.Now(), rows)
}

func (r *timedReader) TermDict() store.TermSource { return r.dict }
func (r *timedReader) Len() int                   { return r.in.Len() }

func (r *timedReader) Triples() []store.EncTriple {
	c := r.enter(r.layer+".Triples", r.triples)
	t := r.in.Triples()
	r.exit(c, len(t))
	return t
}

func (r *timedReader) Iterate(s, p, o store.ID) *store.Iterator {
	c := r.enter(r.layer+".Iterate", r.iterate)
	it := r.in.Iterate(s, p, o)
	r.exit(c, 0)
	return it
}

func (r *timedReader) Range(s, p, o store.ID) store.IndexRange {
	if r.log != nil {
		r.log.add(rangeCall{store.ChooseOrder(s != store.NoID, p != store.NoID, o != store.NoID), s, p, o})
	}
	c := r.enter(r.layer+".RangeIn", r.rangeIn)
	ir := r.in.Range(s, p, o)
	r.exit(c, len(ir.Rows))
	return ir
}

func (r *timedReader) RangeIn(ord store.Order, s, p, o store.ID) store.IndexRange {
	if r.log != nil {
		r.log.add(rangeCall{ord, s, p, o})
	}
	c := r.enter(r.layer+".RangeIn", r.rangeIn)
	ir := r.in.RangeIn(ord, s, p, o)
	r.exit(c, len(ir.Rows))
	return ir
}

func (r *timedReader) Count(s, p, o store.ID) int {
	c := r.enter(r.layer+".Count", r.count)
	n := r.in.Count(s, p, o)
	r.exit(c, 0)
	return n
}

func (r *timedReader) stat(f func() int) int {
	c := r.enter(r.layer+".stats", r.stats)
	n := f()
	r.exit(c, 0)
	return n
}

func (r *timedReader) PredCardinality(p store.ID) int {
	return r.stat(func() int { return r.in.PredCardinality(p) })
}
func (r *timedReader) DistinctSubjects(p store.ID) int {
	return r.stat(func() int { return r.in.DistinctSubjects(p) })
}
func (r *timedReader) DistinctObjects(p store.ID) int {
	return r.stat(func() int { return r.in.DistinctObjects(p) })
}
func (r *timedReader) TotalDistinctSubjects() int { return r.stat(r.in.TotalDistinctSubjects) }
func (r *timedReader) TotalDistinctObjects() int  { return r.stat(r.in.TotalDistinctObjects) }
func (r *timedReader) DistinctPredicates() int    { return r.stat(r.in.DistinctPredicates) }

// timedDict counts dictionary calls (term resolution and lookups of
// query constants) without timing them: engines resolve terms millions
// of times per pass (Q4's string comparison), and two clock reads per
// call would double the pass. Their time stays in the caller's span.
type timedDict struct {
	in    store.TermSource
	calls *atomic.Int64
}

func (d timedDict) Term(id store.ID) rdf.Term {
	d.calls.Add(1)
	return d.in.Term(id)
}

func (d timedDict) Lookup(t rdf.Term) (store.ID, bool) {
	d.calls.Add(1)
	return d.in.Lookup(t)
}

func (d timedDict) Len() int { return d.in.Len() }
