package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// conns caps the generator's connections (and closed-loop clients) at
// the machine's two cores.
const conns = 2

// opKind is one query of the traffic mix.
type opKind struct {
	id     string
	weight int
	url    string // the full GET URL
	text   string // the query text
	expect int    // solution count

	closedOps int // requests in the kind's closed loop
}

// sample is one completed operation.
type sample struct {
	kind    int
	latency time.Duration // from the scheduled send time (open loop) or the send (closed loop)
	late    time.Duration // open loop: how late the generator sent it
	ok      bool
}

// loadgen drives one sp2bserve over plain net/http. It parses nothing
// with the repository's client or results packages: solution counts
// come from its own streaming scan of the JSON body.
type loadgen struct {
	hc    *http.Client
	kinds []opKind

	mu     sync.Mutex
	sample []string // first few failure messages
}

func newLoadgen(base string, kinds []opKind) *loadgen {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	for i := range kinds {
		kinds[i].url = base + "/sparql?" + url.Values{"query": {kinds[i].text}}.Encode()
	}
	return &loadgen{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, kinds: kinds}
}

func (g *loadgen) close() { g.hc.CloseIdleConnections() }

// report records the first failure messages in r.
func (g *loadgen) report(r *result) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, msg := range g.sample {
		r.fail("%s", msg)
	}
	g.sample = nil
}

func (g *loadgen) failf(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.sample) < 5 {
		g.sample = append(g.sample, fmt.Sprintf(format, args...))
	}
}

// do runs one operation of kind k and checks its outcome.
func (g *loadgen) do(k int) bool {
	kind := &g.kinds[k]
	req, err := http.NewRequest(http.MethodGet, kind.url, nil)
	if err != nil {
		g.failf("%s: %v", kind.id, err)
		return false
	}
	req.Header.Set("Accept", "application/sparql-results+json")
	resp, err := g.hc.Do(req)
	if err != nil {
		g.failf("%s: %v", kind.id, err)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		g.failf("%s: HTTP %d", kind.id, resp.StatusCode)
		return false
	}
	n, err := countSolutions(resp.Body)
	switch {
	case err != nil:
		g.failf("%s: %v", kind.id, err)
		return false
	case n != kind.expect:
		g.failf("%s: %d solutions, want %d", kind.id, n, kind.expect)
		return false
	}
	return true
}

// deck deals operation kinds in exact mix proportions: each block of
// sum(weights)/gcd(weights) operations holds every kind its weighted
// number of times, in an order drawn from rng. A short run therefore
// sends the mix itself, not a sample of it.
type deck struct {
	rng   *rand.Rand
	block []int
	pos   int
}

func (g *loadgen) deck(rng *rand.Rand) *deck {
	div := 0
	for _, k := range g.kinds {
		div = gcd(div, k.weight)
	}
	var block []int
	for i, k := range g.kinds {
		for j := 0; j < k.weight/div; j++ {
			block = append(block, i)
		}
	}
	return &deck{rng: rng, block: block, pos: len(block)}
}

func (d *deck) next() int {
	if d.pos == len(d.block) {
		d.rng.Shuffle(len(d.block), func(i, j int) { d.block[i], d.block[j] = d.block[j], d.block[i] })
		d.pos = 0
	}
	d.pos++
	return d.block[d.pos-1]
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// schedule draws an open-loop plan: Poisson arrivals at rate ops/s
// over d, each with an operation kind.
func (g *loadgen) schedule(rng *rand.Rand, rate float64, d time.Duration) ([]time.Duration, []int) {
	var at []time.Duration
	var kinds []int
	dk := g.deck(rng)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return at, kinds
		}
		at = append(at, time.Duration(t*float64(time.Second)))
		kinds = append(kinds, dk.next())
	}
}

// openLoop sends each operation at its scheduled time whether or not
// earlier ones have completed; requests wait for one of the conns
// connections, and latency counts from the scheduled time.
func (g *loadgen) openLoop(at []time.Duration, kinds []int) []sample {
	out := make([]sample, len(at))
	var wg sync.WaitGroup
	// At most this many operations wait for a connection at once; a
	// run that needs more is overloaded and its extra sends fail.
	sem := make(chan struct{}, 512)
	start := time.Now()
	for i := range at {
		due := start.Add(at[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(due)
		select {
		case sem <- struct{}{}:
		default:
			g.failf("open loop: more than %d operations outstanding", cap(sem))
			out[i] = sample{kind: kinds[i], latency: late, late: late}
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			ok := g.do(kinds[i])
			out[i] = sample{kind: kinds[i], latency: time.Since(due), late: late, ok: ok}
		}(i)
	}
	wg.Wait()
	return out
}

// closedLoop runs conns clients, each sending its next operation of
// kind k when its previous one has completed, until n operations have
// been sent. It returns the samples.
func (g *loadgen) closedLoop(k, n int) []sample {
	var wg sync.WaitGroup
	var sent atomic.Int64
	res := make([][]sample, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for sent.Add(1) <= int64(n) {
				t0 := time.Now()
				ok := g.do(k)
				res[w] = append(res[w], sample{kind: k, latency: time.Since(t0), ok: ok})
			}
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, r := range res {
		all = append(all, r...)
	}
	return all
}

// bufPool recycles response read buffers, so the generator makes little
// garbage of its own while it measures.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// countSolutions scans a SPARQL 1.1 JSON results document and returns
// its solution count (ASK: 1 for true, 0 for false) without decoding
// it: it counts the objects opened directly inside the array at
// results.bindings, and reads the top-level boolean.
func countSolutions(r io.Reader) (int, error) {
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	buf := *bp
	var stack []byte
	var key []byte
	inStr, esc, capture := false, false, false
	lastKey := ""
	n, boolean, sawResults := 0, -1, false
	for {
		m, err := r.Read(buf)
		for _, c := range buf[:m] {
			if inStr {
				switch {
				case esc:
					esc = false
				case c == '\\':
					esc = true
					continue
				case c == '"':
					inStr = false
					if capture {
						lastKey = string(key)
						capture = false
						if lastKey == "results" {
							sawResults = true
						}
					}
					continue
				}
				if capture {
					key = append(key, c)
				}
				continue
			}
			switch c {
			case '"':
				inStr = true
				if len(stack) == 1 {
					capture = true
					key = key[:0]
				}
			case '{', '[':
				if c == '{' && len(stack) == 3 && stack[2] == '[' {
					n++
				}
				stack = append(stack, c)
			case '}', ']':
				if len(stack) == 0 {
					return 0, fmt.Errorf("unbalanced JSON results")
				}
				stack = stack[:len(stack)-1]
			case 't', 'f':
				if len(stack) == 1 && lastKey == "boolean" && boolean < 0 {
					boolean = 0
					if c == 't' {
						boolean = 1
					}
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	switch {
	case len(stack) != 0 || inStr:
		return 0, fmt.Errorf("truncated JSON results")
	case boolean >= 0:
		return boolean, nil
	case !sawResults:
		return 0, fmt.Errorf("JSON results without results or boolean")
	}
	return n, nil
}
