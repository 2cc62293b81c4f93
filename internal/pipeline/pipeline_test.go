package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fde"
	"repro/internal/frame"
	"repro/internal/synth"
)

// ------------------------------------------------------------ worker pool

func TestForEachRunsAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var ran atomic.Int64
		errs := ForEach(context.Background(), workers, 20, func(context.Context, int) error {
			ran.Add(1)
			return nil
		})
		if ran.Load() != 20 {
			t.Fatalf("workers=%d: ran %d of 20", workers, ran.Load())
		}
		if err := FirstError(errs); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	var mu sync.Mutex
	ForEach(context.Background(), workers, 30, func(context.Context, int) error {
		n := cur.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		defer cur.Add(-1)
		return nil
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent items, bound is %d", p, workers)
	}
}

func TestForEachPerItemErrors(t *testing.T) {
	boom := errors.New("boom")
	errs := ForEach(context.Background(), 4, 10, func(_ context.Context, i int) error {
		if i%3 == 0 {
			return fmt.Errorf("item %d: %w", i, boom)
		}
		return nil
	})
	for i, err := range errs {
		if (i%3 == 0) != (err != nil) {
			t.Fatalf("item %d: err = %v", i, err)
		}
		if err != nil && !errors.Is(err, boom) {
			t.Fatalf("item %d: err = %v", i, err)
		}
	}
	if err := FirstError(errs); !errors.Is(err, boom) {
		t.Fatalf("FirstError = %v", err)
	}
}

func TestForEachCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	errs := ForEach(ctx, 2, 50, func(ctx context.Context, i int) error {
		if started.Add(1) == 4 {
			cancel()
		}
		return ctx.Err()
	})
	if started.Load() == 50 {
		t.Fatal("cancellation did not stop dispatch")
	}
	canceled := 0
	for _, err := range errs {
		if errors.Is(err, context.Canceled) {
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatal("no item reported context.Canceled")
	}
	// Every never-started item must carry the context error.
	if got := int(started.Load()); canceled < 50-got {
		t.Fatalf("started %d but only %d items report cancellation", got, canceled)
	}
}

func TestForEachEmpty(t *testing.T) {
	if errs := ForEach(context.Background(), 4, 0, nil); len(errs) != 0 {
		t.Fatalf("empty batch returned %d errors", len(errs))
	}
}

// -------------------------------------------------------------- ingestor

var (
	testCorpusOnce sync.Once
	testCorpus     []*synth.Video
)

func corpus(t *testing.T) []*synth.Video {
	t.Helper()
	testCorpusOnce.Do(func() {
		cfg := synth.DefaultConfig(600)
		cfg.Shots = 3
		vids, err := synth.GenerateCorpus(cfg, 4)
		if err != nil {
			panic(err)
		}
		testCorpus = vids
	})
	return testCorpus
}

func corpusJobs(vids []*synth.Video) []Job {
	jobs := make([]Job, len(vids))
	for i, v := range vids {
		jobs[i] = Job{
			Video: core.Video{
				Name: fmt.Sprintf("clip-%02d", i), Width: v.W, Height: v.H,
				FPS: v.FPS, Frames: len(v.Frames),
			},
			Frames: v.Frames,
		}
	}
	return jobs
}

func newEngine(t *testing.T) *fde.Engine {
	t.Helper()
	engine, err := fde.NewTennisEngine(fde.DefaultTennisConfig())
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

func TestIngestorMatchesSequential(t *testing.T) {
	vids := corpus(t)
	jobs := corpusJobs(vids)

	// Sequential reference: one engine, one index, job order.
	seqIdx, err := core.NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	seqEngine := newEngine(t)
	for _, job := range jobs {
		parse, err := seqEngine.Process(job.Video, job.Frames)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fde.IndexResult(parse, seqIdx); err != nil {
			t.Fatal(err)
		}
	}
	var want bytes.Buffer
	if err := seqIdx.Serialize(&want); err != nil {
		t.Fatal(err)
	}

	var progress []Progress
	in, err := New(newEngine(t), Config{Workers: 4, OnProgress: func(p Progress) {
		progress = append(progress, p)
	}})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := core.NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	results, err := in.Run(context.Background(), jobs, dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", r.Seq, r.Err)
		}
		if r.VideoID != int64(r.Seq+1) {
			t.Fatalf("job %d has video ID %d, want %d", r.Seq, r.VideoID, r.Seq+1)
		}
		if r.Frames != len(jobs[r.Seq].Frames) {
			t.Fatalf("job %d parsed %d frames", r.Seq, r.Frames)
		}
	}
	if len(progress) != len(jobs) || progress[len(progress)-1].Done != len(jobs) {
		t.Fatalf("progress callbacks = %d, final = %+v", len(progress), progress[len(progress)-1])
	}
	var got bytes.Buffer
	if err := dst.Serialize(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("parallel ingest serialization differs from sequential (%d vs %d bytes)",
			got.Len(), want.Len())
	}
}

func TestIngestorOpenAndErrors(t *testing.T) {
	vids := corpus(t)
	jobs := corpusJobs(vids[:2])
	openErr := errors.New("decode failed")
	jobs = append(jobs, Job{
		Video: core.Video{Name: "broken"},
		Open: func() (core.Video, []*frame.Image, error) {
			return core.Video{}, nil, openErr
		},
	})
	v := vids[2]
	jobs = append(jobs, Job{
		Open: func() (core.Video, []*frame.Image, error) {
			return core.Video{
				Name: "opened", Width: v.W, Height: v.H, FPS: v.FPS,
				Frames: len(v.Frames),
			}, v.Frames, nil
		},
	})

	in, err := New(newEngine(t), Config{Workers: 2, ContinueOnError: true})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := core.NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	results, err := in.Run(context.Background(), jobs, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[2].Err, openErr) {
		t.Fatalf("job 2 err = %v", results[2].Err)
	}
	if results[3].Err != nil || results[3].Name != "opened" {
		t.Fatalf("lazy-open job = %+v", results[3])
	}
	if st := dst.Stats(); st.Videos != 3 {
		t.Fatalf("indexed %d videos, want 3 (failed job excluded)", st.Videos)
	}
	if results[2].VideoID != 0 {
		t.Fatalf("failed job has video ID %d", results[2].VideoID)
	}
	opened, err := dst.VideoByName("opened")
	if err != nil {
		t.Fatal(err)
	}
	if opened.ID != results[3].VideoID || opened.ID != 3 {
		t.Fatalf("lazy-open job video ID = %d, result says %d, want 3", opened.ID, results[3].VideoID)
	}
}

func TestIngestorNilEngine(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil engine accepted")
	}
}
