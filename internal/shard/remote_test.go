package shard_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sp2bench/internal/engine"
	"sp2bench/internal/queries"
	"sp2bench/internal/rdf"
	"sp2bench/internal/server"
	"sp2bench/internal/shard"
	"sp2bench/internal/store"
	"sp2bench/internal/store/readertest"
)

// serveShards starts one HTTP shard server per shard of the set and
// returns their endpoint URLs in shard order.
func serveShards(t *testing.T, set *shard.Set) []string {
	t.Helper()
	eps := make([]string, set.Shards())
	for i := range eps {
		mux := http.NewServeMux()
		mux.Handle("/shard/", server.ShardHandler(set.Shard(i), i, set.Shards()))
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		eps[i] = ts.URL + "/sparql"
	}
	return eps
}

// The remote reader must be indistinguishable from a local one: the
// whole conformance suite over the wire.
func TestRemoteReaderConformance(t *testing.T) {
	readertest.Run(t, func(t *testing.T, triples []rdf.Triple) store.Reader {
		set := splitFixture(t, triples, 3)
		rd, err := shard.OpenRemote(context.Background(), serveShards(t, set), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return rd
	})
}

// Admission is strict: a shuffled endpoint list would route
// bound-subject scans to the wrong shard, so OpenRemote must refuse it
// rather than serve wrong answers.
func TestOpenRemoteRejectsShuffledEndpoints(t *testing.T) {
	set := splitFixture(t, readertest.Fixture(), 2)
	eps := serveShards(t, set)
	if _, err := shard.OpenRemote(context.Background(), []string{eps[1], eps[0]}, 5*time.Second); err == nil {
		t.Fatal("OpenRemote admitted endpoints in the wrong shard order")
	}
	if _, err := shard.OpenRemote(context.Background(), eps[:1], 5*time.Second); err == nil {
		t.Fatal("OpenRemote admitted 1 endpoint for a 2-shard set")
	}
}

// A shard failing mid-query must surface as a 502 naming the culprit —
// the coordinator's partial-failure contract — not as a wrong (partial)
// answer or a dead process.
func TestRemoteFaultAnswers502(t *testing.T) {
	set := splitFixture(t, readertest.Fixture(), 2)

	mux0 := http.NewServeMux()
	mux0.Handle("/shard/", server.ShardHandler(set.Shard(0), 0, 2))
	ts0 := httptest.NewServer(mux0)
	defer ts0.Close()
	mux1 := http.NewServeMux()
	mux1.Handle("/shard/", server.ShardHandler(set.Shard(1), 1, 2))
	ts1 := httptest.NewServer(mux1)
	defer ts1.Close()

	rd, err := shard.OpenRemote(context.Background(), []string{ts0.URL + "/sparql", ts1.URL + "/sparql"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	h, err := server.New(server.Config{Engine: engine.NewReader(rd, engine.Native())})
	if err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(h)
	defer coord.Close()

	query := func() (int, string) {
		resp, err := http.Post(coord.URL, "application/sparql-query",
			strings.NewReader("SELECT ?s ?o WHERE { ?s <http://example.org/title> ?o }"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf := make([]byte, 512)
		n, _ := resp.Body.Read(buf)
		return resp.StatusCode, string(buf[:n])
	}

	if status, body := query(); status != http.StatusOK {
		t.Fatalf("healthy cluster answered %d: %s", status, body)
	}

	// Kill shard 1 and ask again with a pattern that must scatter. The
	// healthy run above may have cached this scan — use a different
	// predicate so the coordinator has to fan out.
	ts1.Close()
	resp, err := http.Post(coord.URL, "application/sparql-query",
		strings.NewReader("SELECT ?s ?o WHERE { ?s <http://example.org/creator> ?o }"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 512)
	n, _ := resp.Body.Read(buf)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("dead shard answered %d (%s), want 502", resp.StatusCode, string(buf[:n]))
	}
	if body := string(buf[:n]); !strings.Contains(body, "shard 1") {
		t.Fatalf("502 body does not name the failed shard: %s", body)
	}

	// The coordinator survives: queries routable to the live shard 0
	// still answer. (Bound-subject routing needs a subject on shard 0 —
	// find one from the set's own partitioner.)
	var sub rdf.Term
	dict := set.Dict()
	for _, row := range set.Shard(0).Triples() {
		if t := dict.Term(row[0]); t.Kind == rdf.KindIRI {
			sub = t
			break
		}
	}
	resp2, err := http.Post(coord.URL, "application/sparql-query",
		strings.NewReader("SELECT ?p ?o WHERE { <"+sub.Value+"> ?p ?o }"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("routable query after shard death answered %d, want 200", resp2.StatusCode)
	}
}

// TestRemoteFaultInJoinAnswers502: a shard whose scans start failing
// mid-deployment fails Q5a inside the join operators themselves — its
// per-row nested-loop probes and its lazily built hashed block both
// fetch ranges from the shards while the query runs. The fault must
// come back as a 502 naming the shard, and the coordinator must keep
// serving.
//
// Every shard scan a coordinator fetches is cached per reader, so the
// faulty run uses a second coordinator reader whose only warm-up is
// Explain: planning fetches (and caches) the plan's scan ranges and
// takes counts, leaving the operators' probes as the first uncached
// scans. The 20k document makes Q5a's plan touch more than 2048 rows.
func TestRemoteFaultInJoinAnswers502(t *testing.T) {
	if testing.Short() {
		t.Skip("20k document generation in -short mode")
	}
	set, _, err := shard.Split(generatedStore(t, 20_000), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1 keeps answering meta and count requests, so planning
	// still succeeds once its scans fail.
	var scansDown atomic.Bool
	var eps []string
	for i := 0; i < 2; i++ {
		mux := http.NewServeMux()
		mux.Handle("/shard/", server.ShardHandler(set.Shard(i), i, 2))
		h := http.Handler(mux)
		if i == 1 {
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if scansDown.Load() && r.URL.Path == "/shard/scan" {
					http.Error(w, "scans down", http.StatusServiceUnavailable)
					return
				}
				mux.ServeHTTP(w, r)
			})
		}
		ts := httptest.NewServer(h)
		defer ts.Close()
		eps = append(eps, ts.URL+"/sparql")
	}
	q5a, _ := queries.ByID("q5a")
	coordinator := func() (*engine.Engine, string) {
		rd, err := shard.OpenRemote(context.Background(), eps, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		eng := engine.NewReader(rd, engine.Native())
		h, err := server.New(server.Config{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		return eng, ts.URL
	}
	post := func(url, query string) (int, string) {
		t.Helper()
		resp, err := http.Post(url, "application/sparql-query", strings.NewReader(query))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	_, healthy := coordinator()
	if status, body := post(healthy, q5a.Text); status != http.StatusOK {
		t.Fatalf("healthy cluster answered %d: %.200s", status, body)
	}

	eng, coord := coordinator()
	plan, err := eng.Explain(q5a.Parse())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, " nl ") || !strings.Contains(plan, "hashseg[") {
		t.Fatalf("q5a plan lacks the nl probe or hashseg build this test needs:\n%s", plan)
	}
	scansDown.Store(true)
	status, body := post(coord, q5a.Text)
	if status != http.StatusBadGateway {
		t.Fatalf("q5a with shard 1 down answered %d (%.200s), want 502", status, body)
	}
	if !strings.Contains(body, "shard 1") {
		t.Fatalf("502 body does not name the failed shard: %.200s", body)
	}

	// A bound-subject lookup routes to the live shard 0 alone.
	var sub rdf.Term
	dict := set.Dict()
	for _, row := range set.Shard(0).Triples() {
		if t := dict.Term(row[0]); t.Kind == rdf.KindIRI {
			sub = t
			break
		}
	}
	if status, body := post(coord, "SELECT ?p ?o WHERE { <"+sub.Value+"> ?p ?o }"); status != http.StatusOK {
		t.Fatalf("routable query after the fault answered %d (%.200s), want 200", status, body)
	}
}
