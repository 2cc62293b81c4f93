package repro

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

var (
	batchCorpusOnce sync.Once
	batchCorpus     []*synth.Video
)

func batchTestCorpus(t *testing.T) []*synth.Video {
	t.Helper()
	batchCorpusOnce.Do(func() {
		cfg := synth.DefaultConfig(700)
		cfg.Shots = 3
		vids, err := synth.GenerateCorpus(cfg, 6)
		if err != nil {
			panic(err)
		}
		batchCorpus = vids
	})
	return batchCorpus
}

func batchJobs(vids []*synth.Video) []IngestJob {
	jobs := make([]IngestJob, len(vids))
	for i, v := range vids {
		jobs[i] = IngestJob{Name: fmt.Sprintf("clip-%02d", i), Frames: v.Frames, FPS: v.FPS}
	}
	return jobs
}

// The tentpole guarantee: concurrent batch ingestion is indistinguishable
// from sequential indexing — same jobs, byte-identical SaveIndex output.
func TestIndexBatchMatchesSequential(t *testing.T) {
	vids := batchTestCorpus(t)
	jobs := batchJobs(vids)

	seqLib, err := NewLibrary()
	if err != nil {
		t.Fatal(err)
	}
	seqIDs := indexSequentially(t, seqLib, jobs)
	var want bytes.Buffer
	if err := seqLib.SaveIndex(&want); err != nil {
		t.Fatal(err)
	}
	checkResults := func(t *testing.T, results []BatchResult, ids []int64, vids []*synth.Video) {
		t.Helper()
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("job %d: %v", i, r.Err)
			}
			if r.VideoID != ids[i] {
				t.Fatalf("job %d: video ID %d, sequential got %d", i, r.VideoID, ids[i])
			}
			if r.Frames != len(vids[i].Frames) {
				t.Fatalf("job %d: %d frames", i, r.Frames)
			}
		}
	}
	checkSave := func(t *testing.T, lib *Library, want []byte) {
		t.Helper()
		var got bytes.Buffer
		if err := lib.SaveIndex(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("batch index differs from sequential: %d vs %d bytes", got.Len(), len(want))
		}
	}

	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			lib, err := NewLibrary()
			if err != nil {
				t.Fatal(err)
			}
			results, err := lib.IndexBatch(context.Background(), jobs, BatchOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			checkResults(t, results, seqIDs, vids)
			checkSave(t, lib, want.Bytes())
		})
	}

	// A batch landing on a library that already holds videos: the first
	// half is indexed sequentially, the second half batched on top.
	half := len(jobs) / 2
	t.Run("non-empty-head", func(t *testing.T) {
		lib, err := NewLibrary()
		if err != nil {
			t.Fatal(err)
		}
		indexSequentially(t, lib, jobs[:half])
		results, err := lib.IndexBatch(context.Background(), jobs[half:], BatchOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		checkResults(t, results, seqIDs[half:], vids[half:])
		checkSave(t, lib, want.Bytes())
	})

	// A Commit writes its batch into a brand-new segment: byte-identical to
	// opening that segment and indexing the same jobs into it sequentially.
	t.Run("commit", func(t *testing.T) {
		lib, err := NewLibrary()
		if err != nil {
			t.Fatal(err)
		}
		indexSequentially(t, lib, jobs[:half])
		results, err := lib.Commit(context.Background(), jobs[half:], BatchOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		checkResults(t, results, seqIDs[half:], vids[half:])

		ref, err := NewLibrary()
		if err != nil {
			t.Fatal(err)
		}
		indexSequentially(t, ref, jobs[:half])
		base := ref.head().IDState()
		seg, err := core.NewMetaIndexAt(base)
		if err != nil {
			t.Fatal(err)
		}
		ref.parts = append(ref.parts, seg)
		ref.metas = append(ref.metas, core.SegmentMeta{ID: ref.nextSeg, Base: base})
		ref.nextSeg++
		ref.gen++
		indexSequentially(t, ref, jobs[half:])
		var refSave bytes.Buffer
		if err := ref.SaveIndex(&refSave); err != nil {
			t.Fatal(err)
		}
		checkSave(t, lib, refSave.Bytes())
	})
}

// indexSequentially indexes jobs one by one with IndexFrames and returns
// their video IDs.
func indexSequentially(t *testing.T, lib *Library, jobs []IngestJob) []int64 {
	t.Helper()
	ids := make([]int64, len(jobs))
	for i, job := range jobs {
		id, err := lib.IndexFrames(job.Name, job.Frames, job.FPS)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// Cancellation stops dispatch, reports context.Canceled for jobs that never
// ran, and still indexes the jobs that completed.
func TestIndexBatchCancellation(t *testing.T) {
	vids := batchTestCorpus(t)
	jobs := batchJobs(vids)
	lib, err := NewLibrary()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results, err := lib.IndexBatch(ctx, jobs, BatchOptions{
		Workers: 1,
		OnProgress: func(p BatchProgress) {
			if p.Done == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("IndexBatch err = %v, want context.Canceled", err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	done, canceled := 0, 0
	for _, r := range results {
		switch {
		case r.Err == nil:
			done++
			if r.VideoID == 0 {
				t.Fatalf("completed job %q not merged", r.Name)
			}
		case errors.Is(r.Err, context.Canceled):
			canceled++
		default:
			t.Fatalf("job %q: unexpected error %v", r.Name, r.Err)
		}
	}
	if done == 0 {
		t.Fatal("no job completed before cancellation")
	}
	if canceled == 0 {
		t.Fatal("no job reports context.Canceled")
	}
	vs, err := mustIndex(t, lib).Videos()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != done {
		t.Fatalf("index holds %d videos, %d jobs completed", len(vs), done)
	}
}

// Path-based jobs decode in the workers; failures are collected per job
// with ContinueOnError while the rest of the batch lands.
func TestIndexBatchSVFAndErrors(t *testing.T) {
	vids := batchTestCorpus(t)
	dir := t.TempDir()
	jobs := make([]IngestJob, 0, 3)
	for i, v := range vids[:2] {
		path := filepath.Join(dir, fmt.Sprintf("match-%d.svf", i))
		if err := WriteSVF(path, v.Frames, v.FPS); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, IngestJob{Path: path})
	}
	jobs = append(jobs, IngestJob{Path: filepath.Join(dir, "missing.svf")})

	lib, err := NewLibrary()
	if err != nil {
		t.Fatal(err)
	}
	results, err := lib.IndexBatch(context.Background(), jobs, BatchOptions{
		Workers: 2, ContinueOnError: true,
	})
	if err == nil {
		t.Fatal("missing file did not surface in batch error")
	}
	if results[0].Name != "match-0" || results[1].Name != "match-1" {
		t.Fatalf("names from paths: %q, %q", results[0].Name, results[1].Name)
	}
	idx := mustIndex(t, lib)
	for _, r := range results[:2] {
		if r.Err != nil {
			t.Fatalf("job %q failed: %v", r.Name, r.Err)
		}
		if _, err := idx.VideoByName(r.Name); err != nil {
			t.Fatal(err)
		}
	}
	if results[2].Err == nil {
		t.Fatal("missing file indexed without error")
	}
	if st := idx.Stats(); st.Videos != 2 {
		t.Fatalf("index holds %d videos, want 2", st.Videos)
	}
}

func TestIndexBatchValidation(t *testing.T) {
	lib, err := NewLibrary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.IndexBatch(context.Background(), []IngestJob{{Name: "empty"}}, BatchOptions{}); err == nil {
		t.Fatal("job with neither frames nor path accepted")
	}
	results, err := lib.IndexBatch(context.Background(), nil, BatchOptions{})
	if err != nil || len(results) != 0 {
		t.Fatalf("empty batch: %v, %v", results, err)
	}
}
