package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"

	"repro"
	"repro/internal/serve"
)

// expectedHash is the answer fingerprint DigitalLibrary.Search gives for a
// /v2/search query string, rendered by the same encoder the handler uses.
func expectedHash(ctx context.Context, dl *repro.DigitalLibrary, query string) (uint64, error) {
	r := httptest.NewRequest(http.MethodGet, "/v2/search?"+query, nil)
	q, cursor, limit, _, err := serve.ParseSearchQuery(r)
	if err != nil {
		return 0, err
	}
	rs, err := dl.Search(ctx, q, repro.WithLimit(limit), repro.WithCursor(cursor))
	if err != nil {
		return 0, err
	}
	rec := httptest.NewRecorder()
	serve.WriteSearchResult(rec, rs, false, false, 0)
	return answerHash(rec.Body.Bytes()), nil
}

// maxOracleQueries bounds the distinct queries the library oracle
// re-executes per run.
const maxOracleQueries = 2500

// checkAgainstLibrary compares answered samples with the in-process library
// on the same snapshot, one Search per distinct query, and marks mismatches
// failed. Samples are taken in run order, so the first maxOracleQueries
// distinct queries (the hot keys among them) are checked on every
// occurrence. It returns how many samples it checked and marked.
func checkAgainstLibrary(ctx context.Context, dl *repro.DigitalLibrary, t *target, samples []sample) (checked, wrong int, err error) {
	want := map[string]uint64{}
	for i := range samples {
		s := &samples[i]
		if !s.ok {
			continue
		}
		q := t.query(s.op)
		h, seen := want[q]
		if !seen && len(want) == maxOracleQueries {
			continue
		}
		checked++
		if !seen {
			var err error
			if h, err = expectedHash(ctx, dl, q); err != nil {
				return checked, wrong, fmt.Errorf("oracle %q: %w", q, err)
			}
			want[q] = h
		}
		if s.hash != h {
			s.ok = false
			wrong++
		}
	}
	return checked, wrong, nil
}

// parity is the part of a /v2/search answer a cluster must reproduce
// byte for byte: count, total and items (snapshot IDs, cursor tokens,
// cache flags and timings are per process).
type parity struct {
	Count int             `json:"count"`
	Total int             `json:"total"`
	Items json.RawMessage `json:"items"`
}

func parityOf(body []byte) (parity, error) {
	var p parity
	err := json.Unmarshal(body, &p)
	return p, err
}

// checkClusterParity replays a seeded sample of n of the run's queries
// against the router and one node and counts answers that differ.
func checkClusterParity(ctx context.Context, router, node *target, samples []sample, n int, seed int64) (checked, wrong int, err error) {
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(samples))[:min(n, len(samples))] {
		q := router.query(samples[i].op)
		rs, rb, err := router.get(ctx, q, 0)
		if err != nil {
			return checked, wrong, err
		}
		ns, nb, err := node.get(ctx, q, 0)
		if err != nil {
			return checked, wrong, err
		}
		checked++
		rp, rerr := parityOf(rb)
		np, nerr := parityOf(nb)
		if rs != http.StatusOK || ns != http.StatusOK || rerr != nil || nerr != nil ||
			rp.Count != np.Count || rp.Total != np.Total || !bytes.Equal(rp.Items, np.Items) {
			wrong++
		}
	}
	return checked, wrong, nil
}
