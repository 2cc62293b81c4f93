package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"repro"
)

func TestPickTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n         int
		want, pct float64
	}{
		{n: 1000, want: 99, pct: 99}, // 10 beyond rank 990
		{n: 999, want: 99, pct: 98},  // p99 leaves 9 beyond
		{n: 100, want: 90, pct: 90},  // 10 beyond rank 90
		{n: 99, want: 90, pct: 89},   // p90 leaves 9 beyond
		{n: 12, want: 99, pct: 50},   // too few: the median
	}
	for _, c := range cases {
		got := pickTail(seq(c.n), c.want)
		if got.Pct != c.pct || got.N != c.n {
			t.Errorf("n=%d want p%v: got p%v over %d, want p%v over %d", c.n, c.want, got.Pct, got.N, c.pct, c.n)
			continue
		}
		if beyond := c.n - int(got.Value); c.pct > 50 && beyond < minTail {
			t.Errorf("n=%d: p%v leaves %d samples beyond", c.n, got.Pct, beyond)
		}
	}
	if got := pickTail(nil, 99); got.N != 0 {
		t.Errorf("empty: %+v", got)
	}
}

func TestTrafficIsDeterministicPerSeed(t *testing.T) {
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	wc := cfg.Workloads["node-zipf"]
	site, err := repro.GenerateSite(siteConfig(cfg, 5))
	if err != nil {
		t.Fatal(err)
	}
	gen := func(seed int64) ([numLanes][]string, []op) {
		rng := rand.New(rand.NewSource(seed))
		keys := makeKeys(rng, site, wc.KeySpace, cfg.Lanes)
		return keys, makeOps(rng, cfg.Lanes, wc.ZipfS, keys, cfg.FollowKeys, 5000)
	}
	k1, o1 := gen(7)
	k2, o2 := gen(7)
	if !reflect.DeepEqual(k1, k2) || !reflect.DeepEqual(o1, o2) {
		t.Fatal("same seed gave different key spaces or op sequences")
	}
	k3, o3 := gen(8)
	if reflect.DeepEqual(k1, k3) || reflect.DeepEqual(o1, o3) {
		t.Fatal("different seeds gave identical traffic")
	}
	for l := 0; l < numLanes; l++ {
		seen := map[string]bool{}
		for _, k := range k1[l] {
			if seen[k] {
				t.Fatalf("lane %s: duplicate key %q", laneNames[l], k)
			}
			seen[k] = true
		}
	}
	for _, o := range o1 {
		if !o.follow && int(o.key) >= len(k1[o.lane]) {
			t.Fatalf("op %+v outside its lane's key space", o)
		}
	}
	for k := 0; k < 100; k++ {
		if dueOffset(k, 1500) != dueOffset(k, 1500) || (k > 0 && dueOffset(k, 1500) <= dueOffset(k-1, 1500)) {
			t.Fatalf("arrival schedule not strictly increasing and repeatable at %d", k)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "d", Start: 35, End: 45},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30, 3: 20, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

func TestDebugVarsDeltas(t *testing.T) {
	before, err := counters([]byte(`{"router_queries": 10, "router_hedges": 1,
		"node_requests": {"http://a": 4, "http://b": 6}, "cmdline": ["x"], "wal_commit_durable_seconds": 0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := counters([]byte(`{"router_queries": 25, "router_hedges": 1,
		"node_requests": {"http://a": 14, "http://b": 9, "http://c": 2}, "wal_commit_durable_seconds": 0.75}`))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	if d["router_queries"] != 15 || d["router_hedges"] != 0 || d["wal_commit_durable_seconds"] != 0.25 {
		t.Fatalf("deltas %v", d)
	}
	if got := sumPrefix(d, "node_requests."); got != 15 {
		t.Fatalf("node_requests delta sum %v, want 15", got)
	}
	if _, err := counters([]byte(`not json`)); err == nil {
		t.Fatal("malformed /debug/vars parsed")
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's metric lists and
// workloads in step with what the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }  `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if wc, ok := cfg.Workloads[w.Name]; !ok || wc.Why != w.Why {
			t.Errorf("BENCHMARK.json workload %q and workloads.json disagree", w.Name)
		}
	}
	if len(b.Workloads) != len(cfg.Workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in workloads.json", len(b.Workloads), len(cfg.Workloads))
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, program reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s/%s, program reports %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	layers, err := loadLayers()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, layers.json has %d", len(b.PerLayer), len(layers))
	}
	for i, m := range b.PerLayer {
		if m.Name != layers[i].Name || m.Unit != layers[i].Unit {
			t.Errorf("per_layer[%d] = %s/%s, layers.json has %s/%s", i, m.Name, m.Unit, layers[i].Name, layers[i].Unit)
		}
	}
}

func TestCommitMetricsUseEveryCommit(t *testing.T) {
	newRun := func() *run {
		r := &run{metrics: map[string]metric{}, samples: map[string]int{}, notes: map[string]any{}}
		r.wc.Commits = 100
		return r
	}
	cs := &commitStats{}
	for i := 0; i < 150; i++ {
		cs.visibleMs = append(cs.visibleMs, float64(i+1))
		cs.commitMs = append(cs.commitMs, 100)
		cs.frames = append(cs.frames, 32)
	}
	cs.attempted = 150
	r := newRun()
	if err := r.commitMetrics(cs); err != nil {
		t.Fatal(err)
	}
	// 150 commits took 1..150 ms: p90 is the 135th, with 15 beyond it.
	if got := r.metrics["commit_visible_p90_ms"].Value; got != 135 {
		t.Errorf("commit_visible_p90_ms = %v, want 135", got)
	}
	if n := r.samples["commit_visible_p90_ms"]; n != 150 {
		t.Errorf("p90 sample count = %d, want 150", n)
	}
	if got := r.metrics["ingest_frames_per_s"].Value; got != 320 {
		t.Errorf("ingest_frames_per_s = %v, want 320", got)
	}
	if r.attempted != 150 {
		t.Errorf("attempted = %d, want every commit (150)", r.attempted)
	}
	short := &commitStats{visibleMs: cs.visibleMs[:99], commitMs: cs.commitMs[:99], frames: cs.frames[:99]}
	if err := newRun().commitMetrics(short); err == nil {
		t.Error("99 commits reported with 100 required")
	}
}

func TestQuietRoundsPicksLeastStolenHalf(t *testing.T) {
	cases := []struct {
		steal []float64
		want  []int
	}{
		{[]float64{0.05, 0, 0.01, 0.2, 0}, []int{1, 2, 4}},
		{[]float64{0, 0, 0, 0}, []int{0, 1}}, // ties: the earlier rounds
		{[]float64{0.3}, []int{0}},
	}
	for _, c := range cases {
		if got := quietRounds(c.steal); !reflect.DeepEqual(got, c.want) {
			t.Errorf("quietRounds(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
}

func TestRoundsCoverTheMeasuredTime(t *testing.T) {
	for _, c := range []struct {
		seconds float64
		rounds  int
	}{{20, 10}, {25, 13}, {1, 1}} {
		r := &run{seconds: c.seconds}
		_, capD, latD, rounds := r.phases()
		if rounds != c.rounds {
			t.Errorf("%vs: %d rounds, want %d", c.seconds, rounds, c.rounds)
		}
		if got := (capD + latD) * time.Duration(rounds); (got - dur(c.seconds)).Abs() > time.Millisecond {
			t.Errorf("%vs: rounds cover %v", c.seconds, got)
		}
	}
}
