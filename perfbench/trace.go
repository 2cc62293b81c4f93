package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer: its name, start and end, the span
// that caused it (0 for a root) and the request it served.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Its clock is wall time
// since the epoch, so the send and completion times the load generator
// records (Unix ns) line up with the server-side spans.
type tracer struct {
	epoch int64 // Unix ns
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now().UnixNano()} }

// newID allocates a span ID ahead of the span, so children can name their
// parent while it is still open.
func (t *tracer) newID() int64 { return t.next.Add(1) }

// now is the trace clock: nanoseconds since the tracer's epoch.
func (t *tracer) now() int64 { return time.Now().UnixNano() - t.epoch }

// add records a finished span; an ID of 0 is allocated.
func (t *tracer) add(s span) int64 {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one JSON array.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its children cover. Overlapping
// children (parallel legs) count once.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of children's intervals clipped to
// parent's.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanCtx carries the current request and parent span through calls that
// take a context (router → segment sources).
type spanCtx struct{ req, parent int64 }

type spanKey struct{}

func withSpan(ctx context.Context, req, parent int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtx{req, parent})
}

func spanFrom(ctx context.Context) spanCtx {
	sc, _ := ctx.Value(spanKey{}).(spanCtx)
	return sc
}
