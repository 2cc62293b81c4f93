package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dlse"
	"repro/internal/webspace"
)

// fixture builds a small engine: synthetic site plus a meta-index with
// net-play and rally events on every final's video.
func fixture(t testing.TB) (*dlse.Engine, *core.MetaIndex) {
	t.Helper()
	site, err := webspace.GenerateAusOpen(webspace.SiteConfig{
		Players: 32, YearStart: 1999, YearEnd: 2001, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	for _, vid := range site.W.All("Video") {
		v, _ := site.W.Get(vid)
		id, err := idx.AddVideo(core.Video{Name: v.StringAttr("name"), Width: 160, Height: 120, FPS: 25, Frames: 500})
		if err != nil {
			t.Fatal(err)
		}
		seg, err := idx.AddSegment(core.Segment{VideoID: id, Interval: core.Interval{Start: 0, End: 200}, Class: "tennis"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := idx.AddEvent(core.Event{VideoID: id, SegmentID: seg, Kind: "net-play", Interval: core.Interval{Start: 120, End: 180}, Confidence: 0.9}); err != nil {
			t.Fatal(err)
		}
		if _, err := idx.AddEvent(core.Event{VideoID: id, SegmentID: seg, Kind: "rally", Interval: core.Interval{Start: 0, End: 100}, Confidence: 0.8}); err != nil {
			t.Fatal(err)
		}
	}
	e, err := dlse.New(site, idx)
	if err != nil {
		t.Fatal(err)
	}
	return e, idx
}

// searchItems answers q through Server.Search, one page of at most limit
// items (limit <= 0: the whole answer).
func searchItems(ctx context.Context, s *Server, q dlse.Query, limit int) ([]dlse.Item, bool, error) {
	rs, cached, err := s.Search(ctx, q, "", limit, false)
	if err != nil {
		return nil, false, err
	}
	return rs.Items, cached, nil
}

const combinedQuery = `find Player where sex = "female" and handedness = "left"` +
	` and exists wonFinals scenes "net-play" via wonFinals.video rank "champion"`

func TestQueryColdThenCached(t *testing.T) {
	e, _ := fixture(t)
	s := New(e, Options{})
	ctx := context.Background()

	cold, cached, err := searchItems(ctx, s, dlse.Query{Source: combinedQuery}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first query reported cached")
	}
	warm, cached, err := searchItems(ctx, s, dlse.Query{Source: combinedQuery}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("second query not served from cache")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("cached result differs from cold result")
	}
	if entries, hits, misses := s.CacheStats(); entries != 1 || hits != 1 || misses != 1 {
		t.Fatalf("cache stats = %d entries, %d hits, %d misses", entries, hits, misses)
	}
}

// TestCacheNeverStaleAfterIndexUpdate is the staleness contract: after the
// meta-index changes (no explicit purge), the next lookup must miss and
// recompute against the new index.
func TestCacheNeverStaleAfterIndexUpdate(t *testing.T) {
	e, idx := fixture(t)
	s := New(e, Options{})
	ctx := context.Background()

	before, _, err := searchItems(ctx, s, dlse.Query{Scenes: "net-play"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, cached, _ := searchItems(ctx, s, dlse.Query{Scenes: "net-play"}, 0); !cached {
		t.Fatal("warm scenes lookup missed")
	}

	// Single writer, no concurrent readers: append one more event.
	vids, err := idx.Videos()
	if err != nil || len(vids) == 0 {
		t.Fatalf("videos: %v", err)
	}
	if _, err := idx.AddEvent(core.Event{
		VideoID: vids[0].ID, Kind: "net-play",
		Interval: core.Interval{Start: 300, End: 350}, Confidence: 0.5,
	}); err != nil {
		t.Fatal(err)
	}

	after, cached, err := searchItems(ctx, s, dlse.Query{Scenes: "net-play"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("stale entry served after index update")
	}
	if len(after) != len(before)+1 {
		t.Fatalf("after update: %d scenes, want %d", len(after), len(before)+1)
	}
}

func TestInvalidateCache(t *testing.T) {
	e, _ := fixture(t)
	s := New(e, Options{})
	ctx := context.Background()
	if _, _, err := searchItems(ctx, s, dlse.Query{Source: combinedQuery}, 0); err != nil {
		t.Fatal(err)
	}
	s.InvalidateCache()
	if entries, _, _ := s.CacheStats(); entries != 0 {
		t.Fatalf("cache has %d entries after purge", entries)
	}
	if _, cached, _ := searchItems(ctx, s, dlse.Query{Source: combinedQuery}, 0); cached {
		t.Fatal("query served from purged cache")
	}
}

func TestCacheDisabled(t *testing.T) {
	e, _ := fixture(t)
	s := New(e, Options{CacheSize: -1})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, cached, err := searchItems(ctx, s, dlse.Query{Source: combinedQuery}, 0); err != nil || cached {
			t.Fatalf("iteration %d: cached=%t err=%v", i, cached, err)
		}
	}
}

// TestConcurrentMixedTrafficMatchesSequential hammers one shared Server
// with goroutines running mixed query/keyword/scene traffic and compares
// every answer against the sequential golden. With -race this locks in the
// serving layer's concurrency safety, cache included.
func TestConcurrentMixedTrafficMatchesSequential(t *testing.T) {
	e, _ := fixture(t)
	s := New(e, Options{CacheSize: 64, Workers: 4})
	ctx := context.Background()
	queries := []string{
		combinedQuery,
		`find Player where handedness = "left"`,
		`find Final scenes "rally" via video`,
		`find Player where exists wonFinals rank "final champion" limit 4`,
	}
	goldenQ := make([][]dlse.Item, len(queries))
	for i, q := range queries {
		res, _, err := searchItems(ctx, s, dlse.Query{Source: q}, 0)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		goldenQ[i] = res
	}
	goldenKW, _, err := searchItems(ctx, s, dlse.Query{Keyword: "champion final"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	goldenSc, _, err := searchItems(ctx, s, dlse.Query{Scenes: "net-play"}, 0)
	if err != nil {
		t.Fatal(err)
	}

	const (
		goroutines = 8
		rounds     = 25
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				switch (g + r) % 3 {
				case 0:
					i := r % len(queries)
					res, _, err := searchItems(ctx, s, dlse.Query{Source: queries[i]}, 0)
					if err != nil {
						t.Errorf("query: %v", err)
						return
					}
					if !reflect.DeepEqual(res, goldenQ[i]) {
						t.Errorf("goroutine %d: query %d diverged from sequential", g, i)
						return
					}
				case 1:
					hits, _, err := searchItems(ctx, s, dlse.Query{Keyword: "champion final"}, 10)
					if err != nil {
						t.Errorf("keyword: %v", err)
						return
					}
					if !reflect.DeepEqual(hits, goldenKW) {
						t.Errorf("goroutine %d: keyword diverged", g)
						return
					}
				default:
					scenes, _, err := searchItems(ctx, s, dlse.Query{Scenes: "net-play"}, 0)
					if err != nil {
						t.Errorf("scenes: %v", err)
						return
					}
					if !reflect.DeepEqual(scenes, goldenSc) {
						t.Errorf("goroutine %d: scenes diverged", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// ---------------------------------------------------------------- HTTP

func TestHTTPEndpoints(t *testing.T) {
	e, _ := fixture(t)
	ts := httptest.NewServer(New(e, Options{}))
	defer ts.Close()

	get := func(t *testing.T, path string, wantStatus int) map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
		return m
	}

	h := get(t, "/healthz", http.StatusOK)
	if h["status"] != "ok" {
		t.Fatalf("healthz status = %v", h["status"])
	}
	if h["docs"].(float64) <= 0 {
		t.Fatalf("healthz docs = %v", h["docs"])
	}

	const left = `find Player where handedness = "left"`
	q := get(t, "/v2/search?q="+urlQuery(left), http.StatusOK)
	if q["count"].(float64) <= 0 {
		t.Fatalf("query count = %v", q["count"])
	}
	if q["cached"].(bool) {
		t.Fatal("first HTTP query cached")
	}
	q2 := get(t, "/v2/search?q="+urlQuery(left), http.StatusOK)
	if !q2["cached"].(bool) {
		t.Fatal("second HTTP query not cached")
	}

	lim := get(t, "/v2/search?limit=2&q="+urlQuery(left), http.StatusOK)
	if lim["count"].(float64) != 2 {
		t.Fatalf("limited query count = %v", lim["count"])
	}

	kw := get(t, "/v2/search?kw=final&limit=5", http.StatusOK)
	if kw["count"].(float64) <= 0 {
		t.Fatalf("keyword count = %v", kw["count"])
	}

	sc := get(t, "/v2/search?kind=net-play", http.StatusOK)
	if sc["count"].(float64) <= 0 {
		t.Fatalf("scenes count = %v", sc["count"])
	}

	get(t, "/v2/search", http.StatusBadRequest)                   // no query form
	get(t, "/v2/search?q=nonsense+syntax", http.StatusBadRequest) // parse error

	// The v1 endpoints are gone.
	for _, path := range []string{"/query?q=" + urlQuery(left), "/keyword?q=final", "/scenes?kind=net-play"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func urlQuery(q string) string { return url.QueryEscape(q) }
