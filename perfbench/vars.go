package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// counters flattens a /debug/vars document into numeric counters: nested
// maps become "outer.inner" names; non-numeric values are skipped.
func counters(doc []byte) (map[string]float64, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(doc, &raw); err != nil {
		return nil, fmt.Errorf("parsing /debug/vars: %w", err)
	}
	out := map[string]float64{}
	flatten("", raw, out)
	return out, nil
}

func flatten(prefix string, raw map[string]json.RawMessage, out map[string]float64) {
	for k, v := range raw {
		name := prefix + k
		var f float64
		if err := json.Unmarshal(v, &f); err == nil {
			out[name] = f
			continue
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(v, &m); err == nil {
			flatten(name+".", m, out)
		}
	}
}

// delta returns after-before for every counter in after (a counter absent
// before counts from 0).
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sumPrefix adds every counter whose name starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// fetchVars reads base's /debug/vars counters.
func fetchVars(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/debug/vars", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/vars: status %d", resp.StatusCode)
	}
	return counters(b)
}
