package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// clients bounds the load generator's concurrency: one sender per vCPU of
// the reference box (2), each with its own keep-alive connection.
const clients = 2

// sample is one completed request.
type sample struct {
	op
	seq    int32 // index into the op sequence
	ok     bool  // 200 and (after the oracle) the right answer
	cached bool
	ms     float64 // latency; open loop counts from the due time
	hash   uint64  // answer fingerprint (see answerHash)
	req    int64   // request ID (traced runs)
	start  int64   // send and completion, Unix ns
	end    int64
}

// target sends ops to one /v2/search endpoint.
type target struct {
	hc   *http.Client
	base string
	keys *[numLanes][]string
	// follow[lane][i] is the key index of follow key i, and cursors[lane][i]
	// the cursor its page 1 returned.
	follow  [numLanes][]int
	cursors [numLanes][]string
	// traced tags each request with an ID, so the server side can parent
	// its spans under the request's root span.
	traced bool
	reqID  atomic.Int64
}

// firstReqID keeps request IDs (root span IDs) clear of the IDs the
// server-side tracer allocates.
const firstReqID = 1 << 40

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: clients * 2, MaxConnsPerHost: clients * 2,
			DisableCompression: true,
		},
	}
}

// query returns op's URL query string.
func (t *target) query(o op) string {
	if o.follow {
		// Follow ops index the lane's follow set modulo its size: which
		// keys have a second page depends on the (seeded) corpus.
		i := int(o.key) % len(t.follow[o.lane])
		return t.keys[o.lane][t.follow[o.lane][i]] + "&cursor=" + t.cursors[o.lane][i]
	}
	return t.keys[o.lane][o.key]
}

// reqHeader carries the request ID to traced handlers.
const reqHeader = "X-Bench-Req"

// get fetches one /v2/search answer: status, body.
func (t *target) get(ctx context.Context, query string, reqID int64) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+"/v2/search?"+query, nil)
	if err != nil {
		return 0, nil, err
	}
	if reqID != 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(reqID, 10))
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// do sends one op and fingerprints its answer; ms is left to the caller.
func (t *target) do(ctx context.Context, o op, seq int32) sample {
	s := sample{op: o, seq: seq}
	if t.traced {
		s.req = firstReqID + t.reqID.Add(1)
	}
	s.start = time.Now().UnixNano()
	status, body, err := t.get(ctx, t.query(o), s.req)
	s.end = time.Now().UnixNano()
	if err == nil && status == http.StatusOK {
		s.ok = true
		s.cached = bytes.Contains(body, []byte(`"cached":true`))
		s.hash = answerHash(body)
	}
	return s
}

// answerHash fingerprints the part of a /v2/search answer a correct server
// must reproduce: everything from "snapshot" on (snapshot, cursor, items),
// skipping count/total/cached/tookMs which precede it.
func answerHash(body []byte) uint64 {
	i := bytes.Index(body, []byte(`"snapshot":`))
	if i < 0 {
		i = 0
	}
	h := fnv.New64a()
	h.Write(body[i:])
	return h.Sum64()
}

// closedLoop runs nc callers back to back over ops[start:] for d and
// returns their samples and the elapsed time.
func closedLoop(ctx context.Context, t *target, ops []op, start, nc int, d time.Duration) ([]sample, time.Duration) {
	var next atomic.Int64
	per := make([][]sample, nc)
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := (start + int(next.Add(1)-1)) % len(ops)
				s := t.do(ctx, ops[i], int32(i))
				s.ms = float64(s.end-s.start) / 1e6
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out, elapsed
}

// openLoop sends ops[start:] at rate per second for d: a dispatcher
// releases each op at its due time to nc senders, and latency runs from
// the due time, so a stall is charged to every request it delays. late
// holds how late (ms) the dispatcher released each op.
func openLoop(ctx context.Context, t *target, ops []op, start, nc int, rate float64, d time.Duration) (samples []sample, late []float64) {
	type job struct {
		i   int
		due time.Time
	}
	n := int(rate * d.Seconds())
	jobs := make(chan job, n) // sized to every send: the dispatcher never blocks
	per := make([][]sample, nc)
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := range jobs {
				s := t.do(ctx, ops[j.i], int32(j.i))
				s.ms = float64(s.end-j.due.UnixNano()) / 1e6
				per[c] = append(per[c], s)
			}
		}(c)
	}
	late = make([]float64, 0, n)
	t0 := time.Now()
	for k := 0; k < n && ctx.Err() == nil; k++ {
		due := t0.Add(dueOffset(k, rate))
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		late = append(late, msSince(due))
		jobs <- job{i: (start + k) % len(ops), due: due}
	}
	close(jobs)
	wg.Wait()
	for _, p := range per {
		samples = append(samples, p...)
	}
	return samples, late
}

// dueOffset is when op k of an open loop at rate per second is due,
// relative to the loop's start: a fixed, evenly spaced schedule.
func dueOffset(k int, rate float64) time.Duration {
	return time.Duration(float64(k) / rate * float64(time.Second))
}

// fetchCursors picks, per follow lane, the first followKeys keys (most
// popular first) whose answer has a second page, and keeps page 1's cursor.
func (t *target) fetchCursors(ctx context.Context, followKeys int) error {
	for _, l := range followLanes {
		t.follow[l], t.cursors[l] = nil, nil
		// Scan a bounded prefix: most popular keys first.
		for k := 0; k < min(len(t.keys[l]), 4*followKeys) && len(t.follow[l]) < followKeys; k++ {
			status, body, err := t.get(ctx, t.keys[l][k], 0)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("follow candidate %q: status %d: %v", t.keys[l][k], status, err)
			}
			if c := jsonString(body, "cursor"); c != "" {
				t.follow[l] = append(t.follow[l], k)
				t.cursors[l] = append(t.cursors[l], c)
			}
		}
		if len(t.follow[l]) == 0 {
			return fmt.Errorf("lane %s: no key has a second page", laneNames[l])
		}
	}
	return nil
}

// jsonString extracts a top-level string field without a full decode.
func jsonString(body []byte, field string) string {
	pat := []byte(`"` + field + `":"`)
	i := bytes.Index(body, pat)
	if i < 0 {
		return ""
	}
	rest := body[i+len(pat):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// The phases: one seeded op sequence replayed against a /v2/search
// endpoint — a warm-up, then rounds of a capacity slice (closed loop) and a
// latency slice (open loop) — announcing the measured part so the run can
// arm what it needs (cache-counter bases, the commit writer, the traced
// wrappers). The rounds spread each metric's samples over the whole
// measured time: the shared host's speed drifts over seconds, and a metric
// taken from one contiguous stretch reads whatever speed that stretch had.

// phasePlan sets one generator run's phases.
type phasePlan struct {
	clients int
	warm    time.Duration
	// capacity and latency are the slices of one round.
	capacity, latency time.Duration
	rounds            int
	rate              float64
	// traced replays every latency slice a second time with request IDs
	// (the untraced rounds are the overhead baseline).
	traced bool
}

// phaseResult is what one generator run measured.
type phaseResult struct {
	warmFailed    int
	capacity      []sample
	capacityRates []float64 // per round: OK answers per second of its slice
	capacityN     []int     // per round: requests in its slice
	latency       []sample
	// latencyRounds holds the untraced latency samples of each round.
	latencyRounds [][]sample
	// roundSteal is each round's share of the machine's CPU time that the
	// hypervisor gave to other guests.
	roundSteal   []float64
	late         []float64 // dispatcher lateness (ms) of every release
	lastLate     float64   // the latest last release of any slice
	untraced     []sample  // traced runs: the untraced latency samples
	untracedLate []float64
}

// Phase events, in order; "traced" only in traced runs.
const (
	evCapacity = "capacity"
	evTraced   = "traced"
	evDone     = "done"
)

// runPhases replays ops against t through the plan's phases, calling
// announce as the measured rounds start, before the traced replay and at
// the end.
func runPhases(ctx context.Context, t *target, ops []op, plan phasePlan, announce func(ev string)) *phaseResult {
	var res phaseResult
	pos := 0
	warm, _ := closedLoop(ctx, t, ops, pos, plan.clients, plan.warm)
	pos += len(warm)
	for _, s := range warm {
		if !s.ok {
			res.warmFailed++
		}
	}
	announce(evCapacity)
	starts := make([]int, 0, plan.rounds)
	for k := 0; k < plan.rounds && ctx.Err() == nil; k++ {
		steal0, total0 := cpuTicks()
		c, elapsed := closedLoop(ctx, t, ops, pos, plan.clients, plan.capacity)
		pos += len(c)
		ok := 0
		for _, s := range c {
			if s.ok {
				ok++
			}
		}
		res.capacity = append(res.capacity, c...)
		res.capacityRates = append(res.capacityRates, float64(ok)/elapsed.Seconds())
		res.capacityN = append(res.capacityN, len(c))
		starts = append(starts, pos)
		lat, late := openLoop(ctx, t, ops, pos, plan.clients, plan.rate, plan.latency)
		pos += len(late)
		res.latencyRounds = append(res.latencyRounds, lat)
		res.latency = append(res.latency, lat...)
		res.late = append(res.late, late...)
		if len(late) > 0 {
			res.lastLate = max(res.lastLate, late[len(late)-1])
		}
		steal1, total1 := cpuTicks()
		res.roundSteal = append(res.roundSteal, stealShare(steal0, total0, steal1, total1))
	}
	if plan.traced {
		res.untraced, res.untracedLate = res.latency, res.late
		res.latency, res.late = nil, nil
		announce(evTraced)
		t.traced = true
		defer func() { t.traced = false }()
		for _, start := range starts {
			lat, late := openLoop(ctx, t, ops, start, plan.clients, plan.rate, plan.latency)
			res.latency = append(res.latency, lat...)
			res.late = append(res.late, late...)
		}
	}
	announce(evDone)
	return &res
}
