package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/ir"
)

//go:embed workloads.json
var configJSON []byte

// broadcastConfig sizes the synthetic broadcasts behind site videos and
// commits.
type broadcastConfig struct {
	Shots      int `json:"shots"`
	MinShotLen int `json:"min_shot_len"`
	MaxShotLen int `json:"max_shot_len"`
	Pool       int `json:"pool"`
}

// workloadConfig is one workload's traffic description: what differs
// between workloads.
type workloadConfig struct {
	Why      string `json:"why"`
	KeySpace int    `json:"key_space"`
	// ZipfS is the zipf exponent of key popularity within a lane; 0 draws
	// keys uniformly.
	ZipfS   float64 `json:"zipf_s"`
	RateQPS float64 `json:"rate_qps"`
	// Commits is how many commits the workload makes and measures, at
	// least; commit-read's writer goes on until its query rounds end.
	Commits int `json:"commits"`
}

// config is workloads.json: corpus sizes, the traffic every workload
// shares and per-workload traffic.
type config struct {
	Site struct {
		Players int `json:"players"`
		Years   int `json:"years"`
	} `json:"site"`
	SeedBroadcast   broadcastConfig `json:"seed_broadcast"`
	CommitBroadcast broadcastConfig `json:"commit_broadcast"`
	FollowKeys      int             `json:"follow_keys"`
	// Lanes are the request shares of the five lanes and of cursor
	// follow-ups ("follow"), the same in every workload.
	Lanes     map[string]float64        `json:"lanes"`
	Workloads map[string]workloadConfig `json:"workloads"`
}

func loadConfig() (config, error) {
	var c config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		return c, fmt.Errorf("workloads.json: %w", err)
	}
	return c, nil
}

// Query lanes of /v2/search, in report order.
const (
	laneConcept = iota
	laneLexical
	laneVector
	laneHybrid
	laneScenes
	numLanes
)

var laneNames = [numLanes]string{"concept", "lexical", "vector", "hybrid", "scenes"}

var sceneKinds = []string{"net-play", "rally", "service"}

// op is one scheduled request: a lane, a key index within the lane's key
// space, and whether it is a cursor follow-up (page 2 of a follow key).
type op struct {
	lane   uint8
	follow bool
	key    int32
}

// inputs is everything a workload feeds the program, derived from the seed
// alone.
type inputs struct {
	site    *repro.Site
	segfile string // seed library: one video per site Video object
	// seedVideos and seedFrames size the seed library.
	seedVideos, seedFrames int
	// commitPool holds pre-rendered SVF broadcasts; commit i ingests
	// commitPool[i%len] under a fresh name.
	commitPool   []string
	commitFrames []int
	// keys[lane] are URL query strings; ops index them.
	keys [numLanes][]string
	ops  []op
}

// siteConfig is the seeded site: ~1k players over 30 editions.
func siteConfig(c config, seed int64) repro.SiteConfig {
	return repro.SiteConfig{
		Players: c.Site.Players, YearStart: 2001 - c.Site.Years + 1, YearEnd: 2001, Seed: seed,
	}
}

// renderBroadcast renders one seeded synthetic broadcast.
func renderBroadcast(bc broadcastConfig, seed int64) (*repro.Broadcast, error) {
	cfg := repro.DefaultBroadcastConfig(seed)
	cfg.Shots, cfg.MinShotLen, cfg.MaxShotLen = bc.Shots, bc.MinShotLen, bc.MaxShotLen
	return repro.GenerateBroadcast(cfg)
}

// siteVideoNames lists the site's Video object names in ID order.
func siteVideoNames(site *repro.Site) []string {
	ids := site.W.All("Video")
	names := make([]string, 0, len(ids))
	for _, id := range ids {
		o, _ := site.W.Get(id)
		names = append(names, o.StringAttr("name"))
	}
	return names
}

// corpus is what the input generator child reports.
type corpus struct {
	SeedVideos   int   `json:"seed_videos"`
	SeedFrames   int   `json:"seed_frames"`
	CommitFrames []int `json:"commit_frames"`
}

// makeCorpus renders the seed library segfile and the commit SVF pool under
// dir. It runs in a child process, so the frames it holds never count
// toward the measured process's peak memory.
func makeCorpus(ctx context.Context, c config, seed int64, dir string) (corpus, error) {
	var out corpus
	site, err := repro.GenerateSite(siteConfig(c, seed))
	if err != nil {
		return out, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	// Seed library: a short broadcast per site Video, ingested through the
	// FDE under the site's video name so concept ‖ video joins find scenes.
	// Every broadcast's seed is drawn in order first, so rendering them in
	// parallel gives the same corpus.
	names := siteVideoNames(site)
	seeds := make([]int64, len(names)+c.CommitBroadcast.Pool)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	casts := make([]*repro.Broadcast, len(seeds))
	errs := make([]error, len(seeds))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(seeds); i = int(next.Add(1) - 1) {
				bc := c.SeedBroadcast
				if i >= len(names) {
					bc = c.CommitBroadcast
				}
				casts[i], errs[i] = renderBroadcast(bc, seeds[i])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return out, err
	}
	jobs := make([]repro.IngestJob, len(names))
	for i, name := range names {
		jobs[i] = repro.IngestJob{Name: name, Frames: casts[i].Frames, FPS: 25}
		out.SeedFrames += len(casts[i].Frames)
	}
	lib, err := repro.NewLibrary()
	if err != nil {
		return out, err
	}
	if _, err := lib.IndexBatch(ctx, jobs, repro.BatchOptions{}); err != nil {
		return out, fmt.Errorf("indexing seed library: %w", err)
	}
	out.SeedVideos = len(jobs)
	if err := saveLibrary(lib, filepath.Join(dir, "library.seg")); err != nil {
		return out, err
	}
	for i, b := range casts[len(names):] {
		if err := repro.WriteSVF(commitPath(dir, i), b.Frames, 25); err != nil {
			return out, err
		}
		out.CommitFrames = append(out.CommitFrames, len(b.Frames))
	}
	return out, nil
}

func commitPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("commit-%02d.svf", i))
}

// makeInputs pairs a generated corpus under dir with the seeded site, key
// spaces and op sequence (nops long) of one workload.
func makeInputs(c config, wc workloadConfig, seed int64, dir string, co corpus, nops int) (*inputs, error) {
	site, err := repro.GenerateSite(siteConfig(c, seed))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x7a11))
	keys := makeKeys(rng, site, wc.KeySpace, c.Lanes)
	ops := makeOps(rng, c.Lanes, wc.ZipfS, keys, c.FollowKeys, nops)
	in := &inputs{
		site: site, segfile: filepath.Join(dir, "library.seg"),
		seedVideos: co.SeedVideos, seedFrames: co.SeedFrames, commitFrames: co.CommitFrames,
		keys: keys, ops: ops,
	}
	for i := range co.CommitFrames {
		in.commitPool = append(in.commitPool, commitPath(dir, i))
	}
	return in, nil
}

func saveLibrary(lib *repro.Library, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := lib.SaveIndex(f); err != nil {
		f.Close()
		return fmt.Errorf("saving seed library: %w", err)
	}
	return f.Close()
}

// vocabulary returns every indexable token occurrence of the site, in page
// order, so a uniform draw picks terms by their corpus frequency and
// depends only on the seed.
func vocabulary(site *repro.Site) []string {
	var out []string
	for _, p := range site.Pages {
		for _, t := range ir.Tokenize(p.Text) {
			if len(t) >= 3 && !ir.IsStopword(t) {
				out = append(out, t)
			}
		}
	}
	return out
}

// terms draws 1-3 distinct terms, frequency-weighted.
func terms(rng *rand.Rand, vocab []string) string {
	n := 1 + rng.Intn(3)
	ts := make([]string, 0, n)
	for len(ts) < n {
		t := vocab[rng.Intn(len(vocab))]
		dup := false
		for _, u := range ts {
			dup = dup || u == t
		}
		if !dup {
			ts = append(ts, t)
		}
	}
	return strings.Join(ts, " ")
}

var countries = []string{
	"Australia", "Belgium", "Croatia", "France", "Germany", "Japan",
	"Netherlands", "Russia", "Spain", "Sweden", "Switzerland", "USA",
}

// conceptQuery draws one combined query-language request over the
// Australian Open schema: conceptual filters, an optional scene join and an
// optional text ranking.
func conceptQuery(rng *rand.Rand, vocab []string) string {
	var b strings.Builder
	if rng.Intn(5) == 0 {
		fmt.Fprintf(&b, `find Final where year >= %d`, 1972+rng.Intn(30))
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, ` and category = "%s"`, []string{"women", "men"}[rng.Intn(2)])
		}
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, ` scenes "%s" via video`, sceneKinds[rng.Intn(len(sceneKinds))])
		}
		fmt.Fprintf(&b, ` rank "%s"`, terms(rng, vocab))
		return b.String()
	}
	b.WriteString(`find Player where sex = "` + []string{"female", "male"}[rng.Intn(2)] + `"`)
	if rng.Intn(2) == 0 {
		b.WriteString(` and handedness = "` + []string{"left", "right"}[rng.Intn(2)] + `"`)
	}
	if rng.Intn(2) == 0 {
		b.WriteString(` and country = "` + countries[rng.Intn(len(countries))] + `"`)
	}
	role := []string{"wonFinals", "playedFinals"}[rng.Intn(2)]
	if rng.Intn(3) > 0 {
		b.WriteString(" and exists " + role)
	}
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&b, ` scenes "%s" via %s.video`, sceneKinds[rng.Intn(len(sceneKinds))], role)
	}
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&b, ` rank "%s"`, terms(rng, vocab))
	}
	if rng.Intn(3) == 0 {
		fmt.Fprintf(&b, ` limit %d`, 5+rng.Intn(16))
	}
	return b.String()
}

// makeKeys builds each lane's key space: distinct URL query strings, lane
// sizes proportional to the lane shares. The scenes lane is bounded by its
// three event kinds times four page sizes.
func makeKeys(rng *rand.Rand, site *repro.Site, space int, shares map[string]float64) [numLanes][]string {
	vocab := vocabulary(site)
	var keys [numLanes][]string
	for l := 0; l < numLanes; l++ {
		want := int(float64(space) * shares[laneNames[l]])
		seen := map[string]bool{}
		if l == laneScenes {
			for _, k := range sceneKinds {
				for _, lim := range []int{5, 10, 20, 50} {
					keys[l] = append(keys[l], fmt.Sprintf("kind=%s&limit=%d", k, lim))
				}
			}
			rng.Shuffle(len(keys[l]), func(i, j int) { keys[l][i], keys[l][j] = keys[l][j], keys[l][i] })
			continue
		}
		for len(keys[l]) < want {
			var k string
			switch l {
			case laneConcept:
				// A results page, as a UI asks for: answers are cached
				// whole, so the page size bounds only the encoding.
				k = "q=" + url.QueryEscape(conceptQuery(rng, vocab)) + fmt.Sprintf("&limit=%d", 10*(1+rng.Intn(2)))
			case laneLexical:
				k = "kw=" + url.QueryEscape(terms(rng, vocab)) + "&limit=10"
			case laneVector:
				k = "kw=" + url.QueryEscape(terms(rng, vocab)) + "&kind=vector&limit=10"
			case laneHybrid:
				k = "kw=" + url.QueryEscape(terms(rng, vocab)) + "&kind=hybrid&limit=10"
			}
			if !seen[k] {
				seen[k] = true
				keys[l] = append(keys[l], k)
			}
		}
	}
	return keys
}

// followLanes are the lanes whose most popular keys get cursor
// follow-ups (page 2 of a paginated walk).
var followLanes = []int{laneLexical, laneScenes}

// makeOps draws the request sequence: lanes by their shares, keys zipf
// (or uniform) within the lane, follow-ups over the first followKeys keys
// of the follow lanes.
func makeOps(rng *rand.Rand, shares map[string]float64, zipfS float64, keys [numLanes][]string, followKeys, n int) []op {
	var cum [numLanes + 1]float64
	total := 0.0
	for l := 0; l < numLanes; l++ {
		total += shares[laneNames[l]]
		cum[l] = total
	}
	total += shares["follow"]
	cum[numLanes] = total
	var zipf [numLanes]*rand.Zipf
	if zipfS > 1 {
		for l := 0; l < numLanes; l++ {
			zipf[l] = rand.NewZipf(rng, zipfS, 1, uint64(len(keys[l])-1))
		}
	}
	draw := func(l int, size int) int32 {
		if zipf[l] != nil && size == len(keys[l]) {
			return int32(zipf[l].Uint64())
		}
		return int32(rng.Intn(size))
	}
	ops := make([]op, n)
	for i := range ops {
		x := rng.Float64() * total
		l := 0
		for l < numLanes && x >= cum[l] {
			l++
		}
		if l == numLanes {
			fl := followLanes[rng.Intn(len(followLanes))]
			ops[i] = op{lane: uint8(fl), follow: true, key: draw(fl, min(followKeys, len(keys[fl])))}
			continue
		}
		ops[i] = op{lane: uint8(l), key: draw(l, len(keys[l]))}
	}
	return ops
}
