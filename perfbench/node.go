package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// nodeOptions mirrors the dlserve flags a workload sets.
type nodeOptions struct {
	cacheSize     int    // -cache-size
	textSegments  int    // -text-segments
	walDir        string // -wal ("" disables)
	walCheckpoint int    // -wal-checkpoint
	segmentTarget int    // -segment-target (0 disables)
	// wrap, when set, puts a handler in front of the server (the traced
	// run's timed /v2/search).
	wrap func(*repro.Server) http.Handler
}

// node is one in-process dlserve: the library opened from the seed
// segfile, its engine and serving layer, and a loopback listener.
type node struct {
	opts nodeOptions
	lib  *repro.Library
	dl   *repro.DigitalLibrary
	srv  *repro.Server
	wal  *repro.WAL
	hs   *http.Server
	url  string
	done chan error

	compacting chan struct{}
	compactWG  sync.WaitGroup
	commits    atomic.Int64
	// compactions records each background compaction's wall time (ms) and
	// error; guarded by compactMu.
	compactMu  sync.Mutex
	compactMs  []float64
	compactErr error
}

// startNode boots a node the way dlserve does with -meta segfile.
func startNode(segfile string, site *repro.Site, opts nodeOptions) (*node, error) {
	n := &node{opts: opts, compacting: make(chan struct{}, 1)}
	loadLib := func() (*repro.Library, error) { return repro.LoadLibraryFile(segfile) }
	var err error
	if opts.walDir != "" {
		if n.wal, err = repro.OpenWAL(opts.walDir); err != nil {
			return nil, err
		}
		if n.lib, _, err = n.wal.LoadBase(loadLib); err != nil {
			n.wal.Close()
			return nil, err
		}
		if _, err = n.wal.Replay(context.Background(), n.lib); err != nil {
			n.wal.Close()
			return nil, fmt.Errorf("wal replay: %w", err)
		}
	} else if n.lib, err = loadLib(); err != nil {
		return nil, err
	}
	n.dl, err = repro.NewDigitalLibraryWith(site, n.lib, repro.LibraryOptions{TextSegments: opts.textSegments})
	if err != nil {
		n.closeStorage()
		return nil, err
	}
	if n.wal != nil {
		n.dl.AttachWAL(n.wal)
	}
	n.srv = repro.NewServer(n.dl, repro.ServerOptions{CacheSize: opts.cacheSize})
	if n.wal != nil {
		for name, v := range n.wal.MetricVars() {
			n.srv.RegisterMetric(name, v)
		}
	}
	var h http.Handler = n.srv
	if opts.wrap != nil {
		h = opts.wrap(n.srv)
	}
	if err := n.listen(h); err != nil {
		n.closeStorage()
		return nil, err
	}
	return n, nil
}

func (n *node) listen(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.url = "http://" + ln.Addr().String()
	n.hs = &http.Server{Handler: h}
	n.done = make(chan error, 1)
	go func() { n.done <- n.hs.Serve(ln) }()
	return nil
}

func (n *node) closeStorage() {
	if n.wal != nil {
		n.wal.Close()
	}
	if n.lib != nil {
		n.lib.Close()
	}
}

// close stops the listener, waits for background compaction and releases
// the library mapping and WAL.
func (n *node) close() error {
	err := shutdown(n.hs, n.done)
	n.compactWG.Wait()
	n.closeStorage()
	return err
}

// shutdown stops an http.Server started by listen and waits for Serve.
func shutdown(hs *http.Server, done chan error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := hs.Shutdown(ctx)
	if serr := <-done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// commit ingests one SVF under name with dlserve's committer settings:
// CommitToken with BatchOptions{}, a periodic WAL checkpoint, then
// background compaction.
func (n *node) commit(ctx context.Context, name, path string) (repro.BatchResult, error) {
	res, err := n.dl.CommitToken(ctx, name, []repro.IngestJob{{Name: name, Path: path}}, repro.BatchOptions{})
	if err != nil {
		return repro.BatchResult{}, err
	}
	if len(res) != 1 || res[0].Err != nil {
		return repro.BatchResult{}, fmt.Errorf("commit %s: %v", name, res)
	}
	c := n.commits.Add(1)
	if n.wal != nil && n.opts.walCheckpoint > 0 && c%int64(n.opts.walCheckpoint) == 0 {
		if err := n.dl.CheckpointWAL(); err != nil {
			return res[0], fmt.Errorf("wal checkpoint: %w", err)
		}
	}
	n.maybeCompact()
	return res[0], nil
}

// maybeCompact starts one background compaction unless one is running,
// as dlserve -segment-target does after each commit.
func (n *node) maybeCompact() {
	if n.opts.segmentTarget <= 0 {
		return
	}
	select {
	case n.compacting <- struct{}{}:
	default:
		return
	}
	n.compactWG.Add(1)
	go func() {
		defer n.compactWG.Done()
		defer func() { <-n.compacting }()
		t0 := time.Now()
		changed, err := n.dl.Compact(n.opts.segmentTarget)
		n.compactMu.Lock()
		defer n.compactMu.Unlock()
		if err != nil && n.compactErr == nil {
			n.compactErr = err
		}
		if changed {
			n.compactMs = append(n.compactMs, msSince(t0))
		}
	}()
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
