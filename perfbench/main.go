// Command perfbench is the repository's end-to-end benchmark: it drives
// dlserve and dlrouter in-process, on loopback listeners, through the
// public constructors, and prints a report line and then the JSON result
// line.
//
//	bash perfbench/run.sh --workload node-zipf --seed 1 --seconds 10 --trace 0
//
// Workloads (see workloads.json): node-zipf, cluster-uniform, commit-read.
// --trace 0 reports the end-to-end metrics; --trace 1 replays the workload
// with timed wrappers around each layer's public calls and reports the
// per-layer metrics of layers.json. Inputs come from --seed alone.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// opsLen is the length of the seeded op sequence; runs wrap around it.
const opsLen = 400_000

// deadline bounds one run; a run that overstays exits without a result.
const deadline = 170 * time.Second

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		workload = flag.String("workload", "", "node-zipf, cluster-uniform or commit-read")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds (capacity + latency rounds)")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced replay")
		work     = flag.String("work", ".bench_build", "scratch directory for generated inputs and traces")
		corpusTo = flag.String("corpus", "", "internal: render the seed's corpus into this directory and exit")
	)
	flag.Parse()
	cfg, err := loadConfig()
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *corpusTo != "" {
		co, err := makeCorpus(ctx, cfg, *seed, *corpusTo)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(co)
	}
	wc, ok := cfg.Workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(1)
	})
	defer watchdog.Stop()

	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	co, err := renderCorpus(ctx, *seed, dir)
	if err != nil {
		return err
	}
	tCorpus := time.Since(t0).Seconds()
	in, err := makeInputs(cfg, wc, *seed, dir, co, opsLen)
	if err != nil {
		return err
	}
	r := &run{
		name: *workload, cfg: cfg, wc: wc, seed: *seed, seconds: *seconds, dir: dir, in: in,
		hc: newHTTPClient(), work: *work,
		metrics: map[string]metric{}, samples: map[string]int{}, notes: map[string]any{},
	}
	r.stage("inputs", t0)
	r.notes["stage_s"].(map[string]float64)["corpus"] = tCorpus
	if *trace == 1 {
		r.tr = newTracer()
		r.layer = &layerData{values: map[string]float64{}, counts: map[string]int{}, commit: map[string][]float64{}}
	}
	if err := r.runWorkload(ctx); err != nil {
		return err
	}
	return r.print(os.Stdout, *trace == 1)
}

// renderCorpus runs this binary as a child to render the corpus and waits
// for it.
func renderCorpus(ctx context.Context, seed int64, dir string) (corpus, error) {
	var co corpus
	exe, err := os.Executable()
	if err != nil {
		return co, err
	}
	cmd := exec.CommandContext(ctx, exe, "-corpus", dir, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return co, fmt.Errorf("rendering corpus: %w", err)
	}
	err = json.Unmarshal(out, &co)
	return co, err
}

// tracePath is where a traced run writes its spans.
func (r *run) tracePath() string {
	return filepath.Join(r.work, fmt.Sprintf("trace-%s-%d.json", r.name, r.seed))
}

// endToEnd lists the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"search_qps", "req/s"},
	{"search_p50_ms", "ms"},
	{"search_p90_ms", "ms"},
	{"concept_p50_ms", "ms"},
	{"lexical_p50_ms", "ms"},
	{"vector_p50_ms", "ms"},
	{"hybrid_p50_ms", "ms"},
	{"scenes_p50_ms", "ms"},
	{"commit_visible_p50_ms", "ms"},
	{"commit_visible_p90_ms", "ms"},
	{"ingest_frames_per_s", "frames/s"},
	{"rss_peak_mb", "MB"},
}

// result is the last line of output, the benchmark contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes the report line (environment, validity, sample counts,
// workload description) and then the result line.
func (r *run) print(w *os.File, traced bool) error {
	metrics := r.metrics
	notMeasured := map[string]string{}
	if traced {
		layers, err := loadLayers()
		if err != nil {
			return err
		}
		metrics = map[string]metric{}
		for _, lm := range layers {
			v, ok := r.layer.values[lm.Name]
			if !ok {
				notMeasured[lm.Name] = whyNotMeasured(r.name, lm)
			}
			metrics[lm.Name] = metric{Value: v, Unit: lm.Unit}
		}
	} else {
		for _, m := range endToEnd {
			if got, ok := metrics[m.name]; !ok || got.Unit != m.unit {
				return fmt.Errorf("workload %s did not report %s in %s", r.name, m.name, m.unit)
			}
		}
	}
	report := map[string]any{
		"workload": r.name, "seed": r.seed, "seconds": r.seconds, "traced": traced,
		"env": stamp(), "samples": r.samples, "notes": r.notes, "config": r.wc,
		"lanes": r.cfg.Lanes,
		"corpus": map[string]any{
			"pages": len(r.in.site.Pages), "seed_videos": r.in.seedVideos,
			"seed_frames": r.in.seedFrames, "commit_pool_frames": r.in.commitFrames,
		},
		"lane_keys": laneSizes(r.in),
	}
	if traced {
		report["not_measured"] = notMeasured
		report["layer_samples"] = r.layer.counts
		report["trace_file"] = r.tracePath()
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"report": report}); err != nil {
		return err
	}
	return enc.Encode(result{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics,
	})
}

func laneSizes(in *inputs) map[string]int {
	out := map[string]int{}
	for l := 0; l < numLanes; l++ {
		out[laneNames[l]] = len(in.keys[l])
	}
	return out
}
