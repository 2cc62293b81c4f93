package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/router"
	"repro/internal/transport"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one workload execution: its inputs, the counters the result line
// reports, and the traced run's extra state.
type run struct {
	name    string
	cfg     config
	wc      workloadConfig
	seed    int64
	seconds float64
	dir     string // this run's generated inputs
	work    string // scratch root (traces)
	in      *inputs
	hc      *http.Client

	attempted, failed int
	metrics           map[string]metric
	samples           map[string]int // sample count behind each metric
	notes             map[string]any // report-only facts

	tr    *tracer // nil in untraced runs
	layer *layerData
}

// stage records how long a stage of the run took (report only).
func (r *run) stage(name string, t0 time.Time) {
	st, _ := r.notes["stage_s"].(map[string]float64)
	if st == nil {
		st = map[string]float64{}
		r.notes["stage_s"] = st
	}
	st[name] = time.Since(t0).Seconds()
}

func (r *run) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// roundSeconds is the length of one capacity + latency round.
const roundSeconds = 2

// phases cuts the measured seconds into rounds of roundSeconds and each
// round between a capacity slice (30%) and a latency slice (70%); a
// two-second warm-up comes on top. The latency slices get the larger share:
// throughput settles within a few hundred closed-loop requests, while the
// per-lane medians of the slowest open loop (cluster-uniform) need every
// sample the run can give them, and each round's p90 needs 100.
func (r *run) phases() (warm, capacity, latency time.Duration, rounds int) {
	rounds = max(1, int(math.Round(r.seconds/roundSeconds)))
	per := r.seconds / float64(rounds)
	return 2 * time.Second, dur(0.3 * per), dur(0.7 * per), rounds
}

func dur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 11

// timedSetup runs boot setupReps times, keeps the last system and reports
// the median set-up time as setup_s. boot returns the system, its stop
// function and the moment it gave its first answer; boot checks that
// answer after that moment, off the clock.
func timedSetup[T any](r *run, boot func(rep int) (T, func() error, time.Time, error)) (T, func() error, error) {
	defer r.stage("setup", time.Now())
	var secs []float64
	var sys T
	var stop func() error
	for rep := 0; rep < setupReps; rep++ {
		if stop != nil {
			if err := stop(); err != nil {
				return sys, nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var answered time.Time
		var err error
		if sys, stop, answered, err = boot(rep); err != nil {
			return sys, nil, err
		}
		secs = append(secs, answered.Sub(t0).Seconds())
	}
	r.set("setup_s", median(secs), "s", len(secs))
	r.notes["setup_s_all"] = secs
	return sys, stop, nil
}

// firstAnswer polls base's /v2/search with query until a 200 arrives and
// returns the body.
func firstAnswer(ctx context.Context, hc *http.Client, base, query string) ([]byte, error) {
	t := &target{hc: hc, base: base}
	for i := 0; ; i++ {
		status, body, err := t.get(ctx, query, 0)
		if err == nil && status == http.StatusOK {
			return body, nil
		}
		if i == 100 {
			return nil, fmt.Errorf("no answer from %s: status %d: %v", base, status, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// setupProbe is the first query every set-up must answer correctly.
const setupProbe = "kind=rally&limit=5"

// queryPhases runs the load phases against t: warm-up, then rounds of
// capacity (closed loop, nc clients) and latency (open loop at the
// workload's rate, nc senders). onCapacity, when set, runs as the first
// round starts, onDone as the generator finishes.
func (r *run) queryPhases(ctx context.Context, t *target, nc int, onCapacity, onDone func()) (*phaseResult, error) {
	defer r.stage("queries", time.Now())
	warm, capD, latD, rounds := r.phases()
	plan := phasePlan{
		clients: nc, warm: warm, capacity: capD, latency: latD, rounds: rounds,
		rate: r.wc.RateQPS, traced: r.tr != nil,
	}
	steal0, total0 := cpuTicks()
	res := runPhases(ctx, t, r.in.ops, plan, func(ev string) {
		switch ev {
		case evCapacity:
			r.layer.beginQueries()
			if onCapacity != nil {
				onCapacity()
			}
		case evTraced:
			r.layer.startTracing()
		case evDone:
			r.layer.endQueries(r)
			if onDone != nil {
				onDone()
			}
		}
	})
	if res.warmFailed > 0 {
		return nil, fmt.Errorf("warm-up: %d requests failed", res.warmFailed)
	}
	capS, latS := res.capacity, res.latency
	// CPU time the host gave to other guests: a run on a shared machine
	// that lost much of it is slower for reasons outside the program.
	steal1, total1 := cpuTicks()
	r.notes["cpu_steal_share"] = stealShare(steal0, total0, steal1, total1)
	r.layer.generatorDone(r, res)
	r.attempted += len(capS) + len(latS)
	hits := 0
	for _, s := range capS {
		if s.cached {
			hits++
		}
	}
	// The timed metrics come from the quieter half of the rounds, those in
	// which the hypervisor took the least CPU time for other guests: on a
	// shared host a round with a few percent of steal reads 20-60% slower
	// in every metric, for reasons outside the program. search_qps is the
	// median of those rounds' closed-loop rates, so a round slowed down
	// anyway moves it no further than the next round in line.
	quiet := quietRounds(res.roundSteal)
	var rates []float64
	n := 0
	for _, k := range quiet {
		rates = append(rates, res.capacityRates[k])
		n += res.capacityN[k]
	}
	r.set("search_qps", median(rates), "req/s", n)
	r.notes["search_qps_rounds"] = res.capacityRates
	r.notes["round_steal_share"] = res.roundSteal
	r.notes["quiet_rounds"] = quiet
	r.notes["capacity_hit_share"] = float64(hits) / float64(max(1, len(capS)))
	late := res.late
	if len(res.untracedLate) > 0 {
		late = res.untracedLate
	}
	lt := pickTail(sortedCopy(late), 99)
	last := res.lastLate
	r.notes["loadgen_late_p99_ms"], r.notes["loadgen_late_last_ms"] = lt, last
	// The generator shares the process's two Ps with the server, so a
	// release can wait up to one scheduler time slice (10ms) behind a busy
	// goroutine. It has fallen behind its schedule when 1% of its releases
	// come later than that, or when it ends late (a growing backlog):
	// latencies would then measure the generator, so the run is flagged
	// invalid.
	r.notes["valid"] = lt.Value < 10 && last < 10
	r.notes["rate_qps"], r.notes["clients"], r.notes["rounds"] = r.wc.RateQPS, nc, rounds
	return res, nil
}

// quietRounds returns the rounds queryPhases took its metrics from.
func (r *run) quietRounds() []int { return r.notes["quiet_rounds"].([]int) }

// latencyMs is a sample's latency, a failed request missing every limit.
func latencyMs(s sample) float64 {
	if !s.ok {
		return failedMs
	}
	return s.ms
}

// latencyMetrics reports the untraced latency slices of the quiet rounds:
// all lanes and per lane. search_p90_ms is the median of the rounds' p90s,
// so a round the host slowed down, whose requests queued behind the stall,
// moves it no further than the next round in line.
func (r *run) latencyMetrics(res *phaseResult) {
	var all []float64
	var lanes [numLanes][]float64
	var p90s []float64
	minPct := 90.0
	for _, k := range r.quietRounds() {
		var xs []float64
		for _, s := range res.latencyRounds[k] {
			ms := latencyMs(s)
			xs = append(xs, ms)
			lanes[s.lane] = append(lanes[s.lane], ms)
		}
		all = append(all, xs...)
		p90 := pickTail(sortedCopy(xs), 90)
		p90s = append(p90s, p90.Value)
		minPct = min(minPct, p90.Pct)
	}
	sorted := sortedCopy(all)
	r.set("search_p50_ms", quantile(sorted, 0.5), "ms", len(sorted))
	r.set("search_p90_ms", median(p90s), "ms", len(sorted))
	r.notes["search_p90_rounds"] = p90s
	r.notes["search_p90_round_pct"] = minPct // below 90 when a round has < 100 samples
	// The p99 lands among requests that waited out a scheduler time slice
	// or a GC cycle; on a shared 2-vCPU box it moves by 30-50% between
	// runs, more than any bound a gate can use, so it is reported here
	// with its sample count instead of as a gated metric.
	r.notes["search_p99_ms"] = pickTail(sorted, 99)
	for l := 0; l < numLanes; l++ {
		ls := sortedCopy(lanes[l])
		r.set(laneNames[l]+"_p50_ms", quantile(ls, 0.5), "ms", len(ls))
	}
}

// countFailed adds failed samples to the failure count.
func (r *run) countFailed(samples ...[]sample) {
	for _, ss := range samples {
		for _, s := range ss {
			if !s.ok {
				r.failed++
			}
		}
	}
}

// ---------------------------------------------------------------- commits

// committer commits one SVF under name and returns the batch result and
// commit wall time (ms) of the node the trace follows.
type committer func(ctx context.Context, name, path string) (repro.BatchResult, float64, error)

// nodeCommitter commits on one node.
func nodeCommitter(n *node) committer {
	return func(ctx context.Context, name, path string) (repro.BatchResult, float64, error) {
		t0 := time.Now()
		res, err := n.commit(ctx, name, path)
		return res, msSince(t0), err
	}
}

// commitStats collects the commit → searchable path. One goroutine at a
// time commits.
type commitStats struct {
	visibleMs []float64 // commit call to first answer holding the video
	commitMs  []float64 // the commit call alone
	frames    []int     // frames each commit ingested
	attempted int
	failed    int
}

// probeTokens is how many seeded nonsense tokens a commit's video name
// carries. The probe is a vector-lane query on them, and the lane embeds
// text into 64 hashed dimensions, where a few tokens collide with the
// terms of unrelated pages: with five tokens, now and then a probe ranked
// the new video below the top five. With 32 the name dominates the video's
// embedding, and a simulation over 12000 commits on 30 seeded sites ranked
// it first every time.
const probeTokens = 32

// commitName is commit i's video name: a fixed prefix plus probeTokens
// seeded nonsense tokens, so the probe query finds exactly this video.
func commitName(seed int64, i int) (name, probe string) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
	toks := make([]string, probeTokens)
	for k := range toks {
		b := make([]byte, 7)
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		toks[k] = string(b)
	}
	return fmt.Sprintf("bench-%d-%s", i, strings.Join(toks, "-")),
		"kw=" + strings.Join(toks, "+") + "&kind=vector&limit=5"
}

// commitAndProbe commits video i and sends the visibility probe; the first
// answer after an acknowledged commit must contain the new video.
func (r *run) commitAndProbe(ctx context.Context, i int, commit committer, probe *target, cs *commitStats) error {
	name, q := commitName(r.seed, i)
	path := r.in.commitPool[i%len(r.in.commitPool)]
	hook := r.layer.beforeCommit(r)
	t0 := time.Now()
	res, nodeMs, err := commit(ctx, name, path)
	commitMs := msSince(t0)
	if err != nil {
		return fmt.Errorf("commit %d: %w", i, err)
	}
	t1 := time.Now()
	status, body, err := probe.get(ctx, q, 0)
	visible := msSince(t0)
	probeMs := msSince(t1)
	ok := err == nil && status == http.StatusOK &&
		bytes.Contains(body, []byte(`"page":"video/`+name+`"`))
	cs.attempted++
	if !ok {
		cs.failed++
		visible = failedMs
	}
	cs.visibleMs = append(cs.visibleMs, visible)
	cs.commitMs = append(cs.commitMs, commitMs)
	cs.frames = append(cs.frames, res.Frames)
	r.layer.afterCommit(r, hook, path, res, nodeMs, probeMs)
	return nil
}

// commitMetrics reports commit → searchable and ingest throughput over
// every commit made, at least wc.Commits, so commit_visible_p90_ms always
// has 10 samples beyond it. The query workloads make exactly wc.Commits;
// commit-read's writer commits through the whole run, so its samples span
// the run rather than its first seconds. Every commit counts as attempted.
func (r *run) commitMetrics(cs *commitStats) error {
	n := len(cs.visibleMs)
	if n < r.wc.Commits {
		return fmt.Errorf("%d commits made, %d needed", n, r.wc.Commits)
	}
	sorted := sortedCopy(cs.visibleMs)
	r.set("commit_visible_p50_ms", quantile(sorted, 0.5), "ms", n)
	p90 := pickTail(sorted, 90)
	if p90.Pct != 90 {
		return fmt.Errorf("%d commits cannot support commit_visible_p90_ms", n)
	}
	r.set("commit_visible_p90_ms", p90.Value, "ms", n)
	var total float64
	frames := 0
	for i, ms := range cs.commitMs {
		total += ms
		frames += cs.frames[i]
	}
	r.set("ingest_frames_per_s", float64(frames)/(total/1000), "frames/s", n)
	r.attempted += cs.attempted
	r.failed += cs.failed
	r.notes["commits"] = cs.attempted
	r.notes["commit_failed"] = cs.failed
	return nil
}

// idleCommits commits n videos back to back with no other traffic.
func (r *run) idleCommits(ctx context.Context, n int, commit committer, probe *target) error {
	defer r.stage("commits", time.Now())
	cs := &commitStats{}
	for i := 0; i < n; i++ {
		if err := r.commitAndProbe(ctx, i, commit, probe, cs); err != nil {
			return err
		}
	}
	return r.commitMetrics(cs)
}

// checkVideos verifies a node's manifest holds want videos.
func (r *run) checkVideos(ctx context.Context, base string, want int) error {
	var m transport.Manifest
	var err error
	if m, err = transport.NewRemote(base, r.hc).Manifest(ctx); err != nil {
		return err
	}
	r.attempted++
	if m.Videos != want {
		r.failed++
		r.notes["video_count_error"] = fmt.Sprintf("%s: %d videos, want %d", base, m.Videos, want)
	}
	r.notes["segments"] = len(m.Segments)
	return nil
}

// peakRSS reports the process's peak resident set size in MB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ---------------------------------------------------------------- node-zipf

func (r *run) nodeZipf(ctx context.Context) error {
	opts := nodeOptions{cacheSize: 1024, wrap: r.layer.wrapNode(r)}
	n, stop, err := r.setupNode(ctx, opts)
	if err != nil {
		return err
	}
	defer stop()
	t := &target{hc: r.hc, base: n.url, keys: &r.in.keys}
	if err := t.fetchCursors(ctx, r.cfg.FollowKeys); err != nil {
		return err
	}
	r.layer.watchServer(n.srv)
	res, err := r.queryPhases(ctx, t, clients, nil, nil)
	if err != nil {
		return err
	}
	capS, latS := res.capacity, res.latency
	t0 := time.Now()
	checked, wrong, err := checkAgainstLibrary(ctx, n.dl, t, append(capS, latS...))
	if err != nil {
		return err
	}
	r.stage("oracle", t0)
	r.notes["oracle_checked"], r.notes["oracle_wrong"] = checked, wrong
	r.latencyMetrics(res)
	r.countFailed(capS, latS)
	r.layer.explainMisses(ctx, r, n.dl)

	r.layer.watchNode(n)
	if err := r.idleCommits(ctx, r.wc.Commits, nodeCommitter(n), t); err != nil {
		return err
	}
	return r.checkVideos(ctx, n.url, r.in.seedVideos+r.wc.Commits)
}

// setupNode boots a node setupReps times and keeps the last.
func (r *run) setupNode(ctx context.Context, opts nodeOptions) (*node, func() error, error) {
	return timedSetup(r, func(rep int) (*node, func() error, time.Time, error) {
		o := opts
		if o.walDir != "" {
			o.walDir = filepath.Join(r.dir, fmt.Sprintf("wal-%d", rep))
		}
		n, err := startNode(r.in.segfile, r.in.site, o)
		if err != nil {
			return nil, nil, time.Time{}, err
		}
		body, err := firstAnswer(ctx, r.hc, n.url, setupProbe)
		answered := time.Now()
		if err == nil {
			var want uint64
			if want, err = expectedHash(ctx, n.dl, setupProbe); err == nil && want != answerHash(body) {
				err = fmt.Errorf("set-up probe answered wrongly")
			}
		}
		if err != nil {
			n.close()
			return nil, nil, answered, err
		}
		return n, n.close, answered, nil
	})
}

// ---------------------------------------------------------------- cluster

// cluster is dlrouter over two in-process dlserve nodes on loopback.
type cluster struct {
	nodes []*node
	hs    *http.Server
	done  chan error
	url   string
}

func (c *cluster) close() error {
	var errs []error
	if c.hs != nil {
		errs = append(errs, shutdown(c.hs, c.done))
	}
	for _, n := range c.nodes {
		errs = append(errs, n.close())
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *run) startCluster() (*cluster, error) {
	c := &cluster{}
	for i := 0; i < 2; i++ {
		n, err := startNode(r.in.segfile, r.in.site, nodeOptions{cacheSize: 1024, textSegments: 4})
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	// The router's node client, as dlrouter builds it.
	hc := &http.Client{Timeout: 5 * time.Second, Transport: r.layer.routerTransport()}
	srcs := make([]transport.SegmentSource, len(c.nodes))
	for i, n := range c.nodes {
		srcs[i] = r.layer.wrapSource(r, transport.NewRemote(n.url, hc))
	}
	rt, err := router.NewWithSources(srcs, router.Options{Replicas: 2})
	if err != nil {
		c.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.close()
		return nil, err
	}
	c.url = "http://" + ln.Addr().String()
	c.hs = &http.Server{Handler: r.layer.wrapRouter(r, rt)}
	c.done = make(chan error, 1)
	go func() { c.done <- c.hs.Serve(ln) }()
	return c, nil
}

func (r *run) clusterUniform(ctx context.Context) error {
	c, stop, err := timedSetup(r, func(rep int) (*cluster, func() error, time.Time, error) {
		c, err := r.startCluster()
		if err != nil {
			return nil, nil, time.Time{}, err
		}
		body, err := firstAnswer(ctx, r.hc, c.url, setupProbe)
		answered := time.Now()
		if err == nil {
			node := &target{hc: r.hc, base: c.nodes[0].url}
			var nb []byte
			if _, nb, err = node.get(ctx, setupProbe, 0); err == nil {
				rp, rerr := parityOf(body)
				np, nerr := parityOf(nb)
				if rerr != nil || nerr != nil || !bytes.Equal(rp.Items, np.Items) {
					err = fmt.Errorf("set-up probe: router and node disagree")
				}
			}
		}
		if err != nil {
			c.close()
			return nil, nil, answered, err
		}
		return c, c.close, answered, nil
	})
	if err != nil {
		return err
	}
	defer stop()
	t := &target{hc: r.hc, base: c.url, keys: &r.in.keys}
	if err := t.fetchCursors(ctx, r.cfg.FollowKeys); err != nil {
		return err
	}
	r.layer.watchRouter(ctx, r, c.url)
	r.layer.watchServer(c.nodes[0].srv, c.nodes[1].srv)
	res, err := r.queryPhases(ctx, t, clients, nil, nil)
	if err != nil {
		return err
	}
	capS, latS := res.capacity, res.latency
	nodeT := &target{hc: r.hc, base: c.nodes[0].url, keys: &r.in.keys}
	checked, wrong, err := checkClusterParity(ctx, t, nodeT, append(capS, latS...), 300, r.seed)
	if err != nil {
		return err
	}
	r.notes["parity_checked"], r.notes["oracle_wrong"] = checked, wrong
	r.attempted += checked
	r.failed += wrong
	r.latencyMetrics(res)
	r.countFailed(capS, latS)
	r.layer.explainMisses(ctx, r, c.nodes[0].dl)
	r.layer.endRouter(ctx, r, c.url)

	// A cluster commit lands on every node (each holds the full library),
	// one node after the other: a commit already spreads its frame work
	// over both CPUs. The probe goes through the router.
	first := nodeCommitter(c.nodes[0])
	commit := func(ctx context.Context, name, path string) (repro.BatchResult, float64, error) {
		res, ms, err := first(ctx, name, path)
		for _, n := range c.nodes[1:] {
			if err != nil {
				break
			}
			_, err = n.commit(ctx, name, path)
		}
		return res, ms, err
	}
	r.layer.watchNode(c.nodes[0])
	if err := r.idleCommits(ctx, r.wc.Commits, commit, t); err != nil {
		return err
	}
	for _, n := range c.nodes {
		if err := r.checkVideos(ctx, n.url, r.in.seedVideos+r.wc.Commits); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------- commit-read

func (r *run) commitRead(ctx context.Context) error {
	opts := nodeOptions{
		cacheSize: 1024, walDir: "wal", walCheckpoint: 16, segmentTarget: 16,
		wrap: r.layer.wrapNode(r),
	}
	n, stop, err := r.setupNode(ctx, opts)
	if err != nil {
		return err
	}
	defer stop()
	t := &target{hc: r.hc, base: n.url, keys: &r.in.keys}
	if err := t.fetchCursors(ctx, r.cfg.FollowKeys); err != nil {
		return err
	}
	r.layer.watchServer(n.srv)
	r.layer.watchNode(n)

	// One writer commits back to back while one reader runs the query
	// phases. The writer keeps committing until the phases end and it has
	// made wc.Commits commits; if the phases end first, the reader keeps
	// sending the mix at the latency slices' rate until the writer is done.
	probe := &target{hc: newHTTPClient(), base: n.url}
	cs := &commitStats{}
	commit := nodeCommitter(n)
	wctx, stopWriter := context.WithCancel(ctx)
	defer stopWriter()
	var writerErr error
	writerDone := make(chan struct{})
	startWriter := func() {
		go func() {
			defer close(writerDone)
			for i := 0; wctx.Err() == nil || i < r.wc.Commits; i++ {
				// Commits use ctx, not wctx: stopping the writer never
				// abandons a commit half way.
				if writerErr = r.commitAndProbe(ctx, i, commit, probe, cs); writerErr != nil {
					return
				}
			}
		}()
	}
	res, err := r.queryPhases(ctx, t, 1, startWriter, stopWriter)
	stopWriter()
	var capS, latS []sample
	if res != nil {
		capS, latS = res.capacity, res.latency
	}
	extra := r.readUntil(ctx, t, writerDone, len(capS)+len(latS))
	if err != nil {
		return err
	}
	if writerErr != nil {
		return writerErr
	}
	n.compactWG.Wait()
	if n.compactErr != nil {
		return n.compactErr
	}
	r.latencyMetrics(res)
	r.attempted += len(extra)
	r.notes["reads_after_phases"] = len(extra)
	r.countFailed(capS, latS, extra)
	if err := r.commitMetrics(cs); err != nil {
		return err
	}

	// Answers moved with every commit, so the library oracle replays a
	// seeded sample of the run's queries on the final, quiescent snapshot.
	rng := rand.New(rand.NewSource(r.seed))
	all := append(capS, latS...)
	var replay []sample
	for _, i := range rng.Perm(len(all))[:min(300, len(all))] {
		s := t.do(ctx, all[i].op, all[i].seq)
		replay = append(replay, s)
	}
	checked, wrong, err := checkAgainstLibrary(ctx, n.dl, t, replay)
	if err != nil {
		return err
	}
	r.notes["oracle_checked"], r.notes["oracle_wrong"] = checked, wrong
	r.attempted += len(replay)
	r.countFailed(replay)
	r.layer.explainMisses(ctx, r, n.dl)
	return r.checkVideos(ctx, n.url, r.in.seedVideos+cs.attempted)
}

// readUntil sends the op sequence from seq on at the workload's rate until
// done is closed, and returns the samples (untimed).
func (r *run) readUntil(ctx context.Context, t *target, done <-chan struct{}, seq int) []sample {
	var out []sample
	gap := dur(1 / r.wc.RateQPS)
	for next := time.Now(); ; next = next.Add(gap) {
		select {
		case <-done:
			return out
		case <-time.After(time.Until(next)):
		}
		i := int32((seq + len(out)) % len(r.in.ops))
		out = append(out, t.do(ctx, r.in.ops[i], i))
	}
}

// runWorkload generates inputs, runs the named workload and fills r.
func (r *run) runWorkload(ctx context.Context) error {
	var err error
	switch r.name {
	case "node-zipf":
		err = r.nodeZipf(ctx)
	case "cluster-uniform":
		err = r.clusterUniform(ctx)
	case "commit-read":
		err = r.commitRead(ctx)
	default:
		return fmt.Errorf("unknown workload %q", r.name)
	}
	if err != nil {
		return err
	}
	r.set("rss_peak_mb", peakRSS(), "MB", 1)
	r.layer.finish(r)
	return nil
}
