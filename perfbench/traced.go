package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"expvar"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/dlse"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/transport"
)

//go:embed layers.json
var layersJSON []byte

// layerMetric is one per-layer metric and the public call it times.
type layerMetric struct {
	Name  string `json:"name"`
	Unit  string `json:"unit"`
	Layer string `json:"layer"`
	Call  string `json:"call"`
	Moves string `json:"moves"`
}

func loadLayers() ([]layerMetric, error) {
	var ls []layerMetric
	err := json.Unmarshal(layersJSON, &ls)
	return ls, err
}

// layerData is the traced run's state: timed wrappers around the calls
// into each layer and the counters read around them. Every method is a
// no-op on a nil *layerData, which is what untraced runs carry.
type layerData struct {
	tracing atomic.Bool // wrappers time only while set

	mu         sync.Mutex
	values     map[string]float64
	counts     map[string]int // samples behind each value
	respBytes  []float64
	misses     []string // query strings the node's cache missed
	servers    []*repro.Server
	hitsBase   int64
	missesBase int64
	mem0, mem1 runtime.MemStats

	routerVars   map[string]float64
	partialBytes atomic.Int64
	partials     atomic.Int64

	node   *node
	commit map[string][]float64
}

func (l *layerData) setValue(name string, v float64, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.values[name] = v
	l.counts[name] = n
}

func (l *layerData) addCommit(name string, v float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.commit[name] = append(l.commit[name], v)
}

// reqOf reads the client's request ID (also its root span ID).
func reqOf(r *http.Request) int64 {
	id, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	return id
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

// wrapNode returns the node wrapper of traced runs: a /v2/search handler
// making the same three public calls as the server's own handler, each
// timed, plus an Engine.Normalize timed after the answer is written.
func (l *layerData) wrapNode(r *run) func(*repro.Server) http.Handler {
	if l == nil {
		return nil
	}
	tr := r.tr
	return func(srv *repro.Server) http.Handler {
		mux := http.NewServeMux()
		mux.Handle("/", srv)
		mux.HandleFunc("/v2/search", func(w http.ResponseWriter, req *http.Request) {
			if !l.tracing.Load() {
				srv.ServeHTTP(w, req)
				return
			}
			id := reqOf(req)
			t0 := tr.now()
			q, cursor, limit, explain, err := serve.ParseSearchQuery(req)
			t1 := tr.now()
			tr.add(span{Parent: id, Req: id, Name: "serve.parse", Start: t0, End: t1})
			if err != nil {
				serve.WriteSearchError(w, err)
				return
			}
			rs, cached, err := srv.Search(req.Context(), q, cursor, limit, explain)
			t2 := tr.now()
			name := "serve.search_miss"
			if cached {
				name = "serve.search_hit"
			}
			tr.add(span{Parent: id, Req: id, Name: name, Start: t1, End: t2})
			if err != nil {
				serve.WriteSearchError(w, err)
				return
			}
			cw := &countingWriter{ResponseWriter: w}
			serve.WriteSearchResult(cw, rs, cached, false, time.Duration(t2-t1))
			t3 := tr.now()
			tr.add(span{Parent: id, Req: id, Name: "serve.encode", Start: t2, End: t3})
			_, _, _ = srv.Engine().Normalize(q) // errors already surfaced by Search
			tr.add(span{Parent: id, Req: id, Name: "dlse.normalize", Start: t3, End: tr.now()})
			l.mu.Lock()
			l.respBytes = append(l.respBytes, float64(cw.n))
			if !cached {
				l.misses = append(l.misses, req.URL.RawQuery)
			}
			l.mu.Unlock()
		})
		return mux
	}
}

// wrapRouter mounts a timed /v2/search in front of the router: scattered
// forms time Router.Search, proxied forms the whole proxy.
func (l *layerData) wrapRouter(r *run, rt *router.Router) http.Handler {
	if l == nil {
		return rt
	}
	tr := r.tr
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/v2/search" || !l.tracing.Load() {
			rt.ServeHTTP(w, req)
			return
		}
		id := reqOf(req)
		q, cursor, limit, explain, err := serve.ParseSearchQuery(req)
		if _, ok := dlse.CanonicalKey(q); err != nil || !ok || explain {
			t0 := tr.now()
			rt.ServeHTTP(w, req)
			tr.add(span{Parent: id, Req: id, Name: "router.proxy", Start: t0, End: tr.now()})
			return
		}
		sid := tr.newID()
		t0 := tr.now()
		rs, partial, err := rt.Search(withSpan(req.Context(), id, sid), q, cursor, limit)
		t1 := tr.now()
		tr.add(span{ID: sid, Parent: id, Req: id, Name: "router.search", Start: t0, End: t1})
		if err != nil {
			serve.WriteSearchError(w, err)
			return
		}
		serve.WriteSearchResult(w, rs, false, partial, time.Duration(t1-t0))
	})
}

// tracedSource times a segment source's manifest and partial reads.
type tracedSource struct {
	transport.SegmentSource
	l  *layerData
	tr *tracer
}

func (s *tracedSource) Manifest(ctx context.Context) (transport.Manifest, error) {
	if !s.l.tracing.Load() {
		return s.SegmentSource.Manifest(ctx)
	}
	sc := spanFrom(ctx)
	t0 := s.tr.now()
	m, err := s.SegmentSource.Manifest(ctx)
	s.tr.add(span{Parent: sc.parent, Req: sc.req, Name: "transport.manifest", Start: t0, End: s.tr.now()})
	return m, err
}

func (s *tracedSource) Partial(ctx context.Context, q transport.Query, sel transport.Sel, gen int64) (*transport.Partial, error) {
	if !s.l.tracing.Load() {
		return s.SegmentSource.Partial(ctx, q, sel, gen)
	}
	sc := spanFrom(ctx)
	t0 := s.tr.now()
	p, err := s.SegmentSource.Partial(ctx, q, sel, gen)
	s.tr.add(span{Parent: sc.parent, Req: sc.req, Name: "transport.partial", Start: t0, End: s.tr.now()})
	return p, err
}

func (l *layerData) wrapSource(r *run, src transport.SegmentSource) transport.SegmentSource {
	if l == nil {
		return src
	}
	return &tracedSource{SegmentSource: src, l: l, tr: r.tr}
}

// countingTransport counts /v2/partial response bytes while tracing.
type countingTransport struct {
	l    *layerData
	base http.RoundTripper
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil && req.URL.Path == "/v2/partial" && t.l.tracing.Load() {
		t.l.partials.Add(1)
		resp.Body = countingBody{ReadCloser: resp.Body, n: &t.l.partialBytes}
	}
	return resp, err
}

// routerTransport is the router's node transport: dlrouter's (the
// default transport, whose pool the router's whole-query proxy shares),
// counting /v2/partial bytes in traced runs.
func (l *layerData) routerTransport() http.RoundTripper {
	if l == nil {
		return http.DefaultTransport
	}
	return countingTransport{l: l, base: http.DefaultTransport}
}

// watchServer notes the servers whose cache counters the run reads.
func (l *layerData) watchServer(srvs ...*repro.Server) {
	if l == nil {
		return
	}
	l.servers = srvs
}

func (l *layerData) cacheCounts() (hits, misses int64) {
	for _, s := range l.servers {
		_, h, m := s.CacheStats()
		hits, misses = hits+h, misses+m
	}
	return hits, misses
}

// watchRouter snapshots the router's /debug/vars before the query phases.
func (l *layerData) watchRouter(ctx context.Context, r *run, base string) {
	if l == nil {
		return
	}
	v, err := fetchVars(ctx, r.hc, base)
	if err == nil {
		l.routerVars = v
	}
}

// endRouter turns the router's counter deltas into per-layer ratios.
func (l *layerData) endRouter(ctx context.Context, r *run, base string) {
	if l == nil || l.routerVars == nil {
		return
	}
	after, err := fetchVars(ctx, r.hc, base)
	if err != nil {
		return
	}
	d := delta(l.routerVars, after)
	queries := d["router_queries"]
	proxied := d["router_proxied"]
	legs := sumPrefix(d, "node_requests.") - proxied
	if scattered := queries - proxied; scattered > 0 {
		l.setValue("router.legs_per_query", legs/scattered, int(scattered))
	}
	if legs > 0 {
		l.setValue("router.hedge_ratio", d["router_hedges"]/legs, int(legs))
	}
	l.setValue("router.stale_retries", d["router_stale_retries"], int(queries))
	if queries > 0 {
		l.setValue("router.proxied_share", proxied/queries, int(queries))
	}
	r.notes["router_queries"] = queries
}

// beginQueries snapshots the cache and allocation counters as the
// measured query phases start.
func (l *layerData) beginQueries() {
	if l == nil {
		return
	}
	l.hitsBase, l.missesBase = l.cacheCounts()
	l.mem0 = memAt()
}

// startTracing ends the untraced phases (capacity and the untraced
// latency replay, the base of the runtime numbers) and arms the wrappers.
func (l *layerData) startTracing() {
	if l == nil {
		return
	}
	l.mem1 = memAt()
	l.tracing.Store(true)
}

// endQueries disarms the wrappers and reads the cache counters.
func (l *layerData) endQueries(r *run) {
	if l == nil {
		return
	}
	l.tracing.Store(false)
	hits, misses := l.cacheCounts()
	hits, misses = hits-l.hitsBase, misses-l.missesBase
	if hits+misses > 0 {
		l.setValue("serve.cache_hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
		r.notes["cache_lookups"] = hits + misses
	}
}

// generatorDone turns the generator's report into the loadgen, runtime and
// trace-overhead numbers, and records each traced request's root span.
func (l *layerData) generatorDone(r *run, res *phaseResult) {
	if l == nil {
		return
	}
	var ums, tms []float64
	for _, s := range res.untraced {
		ums = append(ums, s.ms)
	}
	for _, s := range res.latency {
		tms = append(tms, s.ms)
		if s.req != 0 {
			r.tr.add(span{ID: s.req, Req: s.req, Name: "client.request", Start: s.start - r.tr.epoch, End: s.end - r.tr.epoch})
		}
	}
	if u := median(ums); u > 0 {
		l.setValue("trace.overhead_ratio", median(tms)/u, len(tms))
	}
	l.setValue("loadgen.late_p99_ms", pickTail(sortedCopy(res.untracedLate), 99).Value, len(res.untracedLate))
	// Capacity plus the untraced latency replay: both untraced.
	if ops := float64(len(res.capacity) + len(res.untraced)); ops > 0 {
		l.setValue("go.allocs_per_op", float64(l.mem1.Mallocs-l.mem0.Mallocs)/ops, int(ops))
		l.setValue("go.alloc_bytes_per_op", float64(l.mem1.TotalAlloc-l.mem0.TotalAlloc)/ops, int(ops))
	}
	l.setValue("go.gc_cpu_fraction", l.mem1.GCCPUFraction, 1)
}

// explainMisses re-executes a sample of the run's cache misses with
// WithExplain, off the clock, reading the operator timings and kernel
// counters the engine computes, and times the vector lane directly.
func (l *layerData) explainMisses(ctx context.Context, r *run, dl *repro.DigitalLibrary) {
	if l == nil {
		return
	}
	queries := l.misses
	if len(queries) == 0 {
		// Behind the router every query misses: use the run's keys.
		for lane := 0; lane < numLanes; lane++ {
			queries = append(queries, r.in.keys[lane][:min(60, len(r.in.keys[lane]))]...)
		}
	}
	// The scenes lane's few keys stay cached, so they never miss: re-run
	// them explicitly.
	queries = append(queries[:min(400, len(queries))], r.in.keys[laneScenes]...)
	ops := map[string][]float64{}
	var postings, docs, vecUs, vecDocs []float64
	for _, qs := range queries {
		req, err := http.NewRequest(http.MethodGet, "/v2/search?"+qs, nil)
		if err != nil {
			continue
		}
		q, _, _, _, err := serve.ParseSearchQuery(req)
		if err != nil {
			continue
		}
		rs, err := dl.Search(ctx, q, repro.WithExplain())
		if err != nil || rs.Explain == nil {
			continue
		}
		var p, d float64
		kernel := false
		for _, op := range rs.Explain.Ops {
			ops[op.Op] = append(ops[op.Op], float64(op.Duration.Nanoseconds())/1e3)
			if op.Kernel != nil {
				p += float64(op.Kernel.PostingsScored)
				d += float64(op.Kernel.DocsTouched)
				kernel = true
			}
		}
		if kernel {
			postings, docs = append(postings, p), append(docs, d)
		}
		text := q.Vector + q.Hybrid
		if text == "" {
			continue
		}
		vi := l.engine().VecIndex()
		t0 := time.Now()
		_, st, err := vi.Search(text, 10)
		if err == nil {
			vecUs = append(vecUs, float64(time.Since(t0).Nanoseconds())/1e3)
			vecDocs = append(vecDocs, float64(st.DocsScanned))
		}
	}
	for _, name := range []string{"concept", "video", "text", "keyword", "vector", "rrf", "scenes", "merge"} {
		if v := ops[name]; len(v) > 0 {
			l.setValue("dlse.op."+name+"_us", median(v), len(v))
		}
	}
	if len(postings) > 0 {
		l.setValue("ir.postings_scored", median(postings), len(postings))
		l.setValue("ir.docs_touched", median(docs), len(docs))
	}
	if len(vecUs) > 0 {
		l.setValue("vec.search_us", median(vecUs), len(vecUs))
		l.setValue("vec.docs_scanned", median(vecDocs), len(vecDocs))
	}
}

// watchNode names the node whose commits the trace breaks down.
func (l *layerData) watchNode(n *node) {
	if l == nil {
		return
	}
	l.node = n
}

// commitHook is what beforeCommit captures for afterCommit.
type commitHook struct {
	durable    float64
	viewBuilds int64
	pre        *dlse.Engine // the engine the commit replaced
}

func walSeconds(n *node) float64 {
	if n.wal == nil {
		return 0
	}
	v, _ := n.wal.MetricVars()["wal_commit_durable_seconds"].(*expvar.Float)
	if v == nil {
		return 0
	}
	return v.Value()
}

func (l *layerData) beforeCommit(r *run) commitHook {
	if l == nil || l.node == nil {
		return commitHook{}
	}
	e := l.node.srv.Engine()
	return commitHook{durable: walSeconds(l.node), viewBuilds: e.VideoIndex().ViewBuilds(), pre: e}
}

// afterCommit breaks the watched node's commit (nodeMs of wall time) into
// its layers, with the off-clock re-runs (SVF decode, Engine.WithVideo, a
// scenes explain) after the probe. The WithVideo re-run repeats the
// transition the commit made, from the engine before the commit to the
// committed video index, so it re-embeds the new segment as the commit did.
func (l *layerData) afterCommit(r *run, h commitHook, path string, res repro.BatchResult, nodeMs, probeMs float64) {
	if l == nil || l.node == nil {
		return
	}
	n := l.node
	e := n.srv.Engine()
	l.addCommit("core.view_builds", float64(e.VideoIndex().ViewBuilds()-h.viewBuilds))
	if rs, err := n.dl.Search(context.Background(), repro.Query{Scenes: "rally"}, repro.WithExplain()); err == nil && rs.Explain != nil {
		for _, op := range rs.Explain.Ops {
			if op.Op == "scenes" {
				l.addCommit("core.scenes_after_commit_us", float64(op.Duration.Nanoseconds())/1e3)
			}
		}
	}
	durable := (walSeconds(n) - h.durable) * 1000
	jobMs := float64(res.Duration.Nanoseconds()) / 1e6
	t0 := time.Now()
	_, _, err := repro.ReadSVF(path)
	decodeMs := msSince(t0)
	if err == nil {
		l.addCommit("vidfmt.decode_ms", decodeMs)
		l.addCommit("fde.process_ms", jobMs-decodeMs)
	}
	l.addCommit("pipeline.job_ms", jobMs)
	if n.wal != nil {
		l.addCommit("wal.durable_ms", durable)
	}
	l.addCommit("commit.install_ms", nodeMs-durable-jobMs)
	l.addCommit("commit.first_query_ms", probeMs)
	// A background compaction that already swapped the engine merged
	// segments the commit did not touch; that transition is not the
	// commit's, so it is skipped.
	if post := e.VideoIndex(); post.NumSegments() == h.pre.VideoIndex().NumSegments()+1 {
		t1 := time.Now()
		_ = h.pre.WithVideo(post)
		l.addCommit("dlse.with_video_ms", msSince(t1))
	}
}

// memAt reads the runtime's allocation counters.
func memAt() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// engine is the snapshot the first watched server serves.
func (l *layerData) engine() *dlse.Engine { return l.servers[0].Engine() }

// whyNotMeasured says why a workload has no data for a per-layer metric.
func whyNotMeasured(workload string, lm layerMetric) string {
	switch {
	case (lm.Layer == "router" || lm.Layer == "transport") && workload != "cluster-uniform":
		return "no router on this workload"
	case lm.Name == "wal.durable_ms":
		return "only commit-read runs with a WAL"
	case lm.Name == "core.compact_ms":
		return "only commit-read compacts after commits"
	case workload == "cluster-uniform" && (lm.Layer == "serve" || lm.Name == "dlse.normalize_us"):
		return "the traced handler wraps the router; the nodes behind it serve only proxied q= queries, untimed"
	}
	return "no call into this layer was observed"
}

// finish derives the span-based metrics and reports every per-layer
// metric; those a workload has no data for are reported as 0 and listed
// in the report with the reason.
func (l *layerData) finish(r *run) {
	if l == nil {
		return
	}
	spans := r.tr.snapshot()
	self := selfTimes(spans)
	byName := map[string][]float64{}
	hasServe := map[int64]bool{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.dur())/1e3)
		if s.Name == "serve.parse" {
			hasServe[s.Parent] = true
		}
	}
	var httpUs []float64
	for _, s := range spans {
		if s.Name == "client.request" && hasServe[s.ID] {
			httpUs = append(httpUs, float64(self[s.ID])/1e3)
		}
	}
	set := func(name string, xs []float64) {
		if len(xs) > 0 {
			l.setValue(name, median(xs), len(xs))
		}
	}
	set("serve.parse_us", byName["serve.parse"])
	set("serve.search_hit_us", byName["serve.search_hit"])
	set("serve.search_miss_us", byName["serve.search_miss"])
	set("serve.encode_us", byName["serve.encode"])
	set("serve.http_us", httpUs)
	set("serve.resp_bytes", l.respBytes)
	set("dlse.normalize_us", byName["dlse.normalize"])
	set("router.search_us", byName["router.search"])
	set("transport.manifest_us", byName["transport.manifest"])
	set("transport.partial_us", byName["transport.partial"])
	if n := len(byName["router.search"]); n > 0 {
		l.setValue("transport.manifests_per_query", float64(len(byName["transport.manifest"]))/float64(n), n)
	}
	if p := l.partials.Load(); p > 0 {
		l.setValue("transport.partial_bytes", float64(l.partialBytes.Load())/float64(p), int(p))
	}
	for name, xs := range l.commit {
		set(name, xs)
	}
	if l.node != nil {
		l.node.compactWG.Wait()
		set("core.compact_ms", l.node.compactMs)
		l.setValue("core.segments", float64(l.node.srv.Engine().VideoIndex().NumSegments()), 1)
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	l.setValue("go.heap_inuse_mb", float64(m.HeapInuse)/(1<<20), 1)
	if err := r.tr.write(r.tracePath()); err != nil {
		r.notes["trace_write_error"] = err.Error()
	}
	r.notes["spans"] = len(spans)
}
