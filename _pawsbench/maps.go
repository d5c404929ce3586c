package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"slices"
	"time"

	"paws"
	"paws/internal/geo"
	"paws/internal/poach"
	"paws/internal/serve"
)

// The maps workload: each operation is one /v1/riskmap request on the
// 10^5-cell park or one /v1/predict batch on MFNP. Efforts come from a
// fixed ladder of mapsLevels levels, more than the server's 64-entry
// riskmap LRU. The mix follows the single-replica run of pawsload recorded
// in BENCH_load.json (riskmap hit rate 0.882; 115 predicts to 127
// riskmaps): a unit is one riskmap at a cold level, then
// mapsHitsPerMiss × (a predict batch, a riskmap at a hot level), so 8 of 9
// riskmaps hit the LRU and predicts are 8 per 9 riskmaps. A round is the
// sweep of all mapsCold cold levels, and cycles three times through the
// hot levels, so every round serves the same responses. Between two uses
// of a cold level the round uses more than 64 other levels, so it has left
// the LRU and is served again from the planner memo; a hot level recurs
// within fewer, so it stays cached. newMapsSchedule derives each riskmap's
// cached flag from a model of the LRU, and the check holds the server to
// it.
const (
	mapsLRU             = 64 // serve.Config's default RiskMapCacheSize
	mapsCold            = 18
	mapsHot             = 48
	mapsLevels          = mapsHot + mapsCold
	mapsHitsPerMiss     = 8
	mapsRiskmapsPerUnit = 1 + mapsHitsPerMiss
	mapsBatch           = 256
)

// mapsEffort is the effort of ladder level k.
func mapsEffort(k int) float64 { return 0.25 + 0.05*float64(k) }

// mapsSchedule is the riskmap side of one round: the ladder level of each
// riskmap in run order, the cached flag the LRU gives it, and the warm-up
// order that leaves the LRU as a round leaves it. The seed shuffles which
// levels the cold and hot slots take; the flags do not depend on it.
type mapsSchedule struct {
	levels []int
	cached []bool
	warm   []int
}

func newMapsSchedule(seed int64) (*mapsSchedule, error) {
	// The cold levels are spread evenly over the ladder, so misses span
	// its response sizes.
	var hot, cold []int
	for k := 0; k < mapsLevels; k++ {
		if len(cold) < mapsCold && k == (2*len(cold)+1)*mapsLevels/(2*mapsCold) {
			cold = append(cold, k)
		} else {
			hot = append(hot, k)
		}
	}
	if len(cold) != mapsCold || len(hot) != mapsHot || mapsCold*mapsHitsPerMiss%mapsHot != 0 {
		return nil, fmt.Errorf("maps ladder has %d cold and %d hot levels", len(cold), len(hot))
	}
	r := rand.New(rand.NewPCG(uint64(seed), 0x6c616464))
	r.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	r.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	s := &mapsSchedule{}
	for j, c := range cold {
		s.levels = append(s.levels, c)
		for h := 0; h < mapsHitsPerMiss; h++ {
			s.levels = append(s.levels, hot[(j*mapsHitsPerMiss+h)%mapsHot])
		}
	}
	// Three rounds from an empty cache: the last two must give the same
	// flags and end in the same state, which is the steady state.
	var lru []int // most recently used first
	var flags [3][]bool
	var ends [3][]int
	for round := range flags {
		for _, k := range s.levels {
			flags[round] = append(flags[round], lruUse(&lru, k))
		}
		ends[round] = append([]int(nil), lru...)
	}
	if !slices.Equal(flags[1], flags[2]) || !slices.Equal(ends[1], ends[2]) {
		return nil, fmt.Errorf("maps schedule does not settle into a steady LRU state")
	}
	s.cached = flags[2]
	for i, c := range s.cached {
		if want := i%mapsRiskmapsPerUnit != 0; c != want {
			return nil, fmt.Errorf("maps schedule: riskmap %d (level %d) cached = %v, want %v", i, s.levels[i], c, want)
		}
	}
	// Warm-up: the levels a round leaves out of the LRU, then the cached
	// ones from least to most recently used. Every level is new to the
	// server, so every warm-up response is uncached.
	end := ends[2]
	for k := 0; k < mapsLevels; k++ {
		if !slices.Contains(end, k) {
			s.warm = append(s.warm, k)
		}
	}
	for i := len(end) - 1; i >= 0; i-- {
		s.warm = append(s.warm, end[i])
	}
	return s, nil
}

// lruUse uses key k in a model of the server's riskmap LRU (most recently
// used first, mapsLRU entries) and reports whether it was cached.
func lruUse(lru *[]int, k int) bool {
	l := *lru
	if i := slices.Index(l, k); i >= 0 {
		*lru = append([]int{k}, slices.Delete(l, i, i+1)...)
		return true
	}
	l = append([]int{k}, l...)
	if len(l) > mapsLRU {
		l = l[:mapsLRU]
	}
	*lru = l
	return false
}

// mapsPredict is one predict batch: an effort from the ladder and MFNP
// cells, drawn by the seed.
type mapsPredict struct {
	effort float64
	cells  []int
}

type mapsW struct {
	svc      *paws.Service
	srv      *server
	sched    *mapsSchedule
	predicts []mapsPredict
	// prints fingerprints each level's uncached response; every later
	// response must match it, cached or not, apart from the cached flag.
	prints map[int]uint64
	// probs holds each predict batch's first response; sent counts the
	// predicts and riskmaps made, checked the riskmaps whose response was
	// checked.
	probs        map[int][]float64
	predictsSent map[int]bool
	riskmapsSent int
	checked      int
	mismatch     []string
	counters0    map[string]float64
}

var lruCounters = []string{"paws_riskmap_cache_hits_total", "paws_riskmap_cache_misses_total"}

func newMaps(ctx context.Context, seed int64) (workload, error) {
	sched, err := newMapsSchedule(seed)
	if err != nil {
		return nil, err
	}
	svc, err := trainServing(ctx)
	if err != nil {
		return nil, err
	}
	w := &mapsW{svc: svc, srv: startServer(svc), sched: sched, prints: map[int]uint64{},
		probs: map[int][]float64{}, predictsSent: map[int]bool{}}
	r := rand.New(rand.NewPCG(uint64(seed), 0x6d617073))
	mf, _ := svc.Served("mfnp")
	n := mf.Park().Grid.NumCells()
	for i := 0; i < mapsCold*mapsHitsPerMiss; i++ {
		w.predicts = append(w.predicts, mapsPredict{effort: mapsEffort(r.IntN(mapsLevels)), cells: r.Perm(n)[:mapsBatch]})
	}
	// Warm-up: every level once, uncached, which fills the planner memo at
	// every level and leaves the LRU in a round's steady state.
	for _, k := range sched.warm {
		if err := w.warm(ctx, k); err != nil {
			w.close()
			return nil, err
		}
	}
	if _, err := w.srv.do(ctx, http.MethodPost, "/v1/predict", w.predictRequest(0)); err != nil {
		w.close()
		return nil, err
	}
	w.counters0, err = w.srv.counters(ctx, lruCounters...)
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// warm requests one level, which must not be cached yet, and keeps its
// fingerprint.
func (w *mapsW) warm(ctx context.Context, level int) error {
	raw, err := w.srv.do(ctx, http.MethodPost, "/v1/riskmap", serve.RiskMapRequest{Model: "park", Effort: mapsEffort(level)})
	if err != nil {
		return err
	}
	fp, cached, err := fingerprint(raw)
	if err != nil {
		return err
	}
	if cached {
		return fmt.Errorf("warm-up riskmap at effort %v is cached", mapsEffort(level))
	}
	w.prints[level] = fp
	return nil
}

func (w *mapsW) round() []op {
	var ops []op
	for i, level := range w.sched.levels {
		if h := i % mapsRiskmapsPerUnit; h > 0 {
			idx := i/mapsRiskmapsPerUnit*mapsHitsPerMiss + h - 1
			ops = append(ops, op{label: "predict", run: func(ctx context.Context, t *tracer) (func(), error) {
				return w.predict(ctx, t, idx)
			}})
		}
		ops = append(ops, w.riskmapOp(level, w.sched.cached[i]))
	}
	return ops
}

func (w *mapsW) riskmapOp(level int, cached bool) op {
	return op{label: "riskmap", run: func(ctx context.Context, t *tracer) (func(), error) {
		return w.riskmap(ctx, t, level, cached)
	}}
}

// riskmap requests a level's maps and decodes them, as a client would;
// want is the cached flag the schedule gives the request.
func (w *mapsW) riskmap(ctx context.Context, t *tracer, level int, want bool) (func(), error) {
	w.riskmapsSent++
	raw, err := w.srv.do(ctx, http.MethodPost, "/v1/riskmap", serve.RiskMapRequest{Model: "park", Effort: mapsEffort(level)})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var resp serve.RiskMapResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, err
	}
	t.add("maps.decode_ms", msSince(start))
	if t != nil {
		cur := t.cur
		cur.Extra["maps.response_kb"] = float64(len(raw)) / 1024
		cur.Note = "uncached"
		if resp.Cached {
			cur.Note = "cached"
		}
		w.srv.afterTraces(t)
		t.after(func() {
			// The server's encoding of the same response.
			start := time.Now()
			_, _ = json.Marshal(resp)
			cur.Extra["maps.encode_ms"] = msSince(start)
		})
	}
	return func() {
		w.checked++
		fp, cached, err := fingerprint(raw)
		if err == nil && cached != resp.Cached {
			err = fmt.Errorf("cached flag misread")
		}
		if err == nil && resp.Cached != want {
			err = fmt.Errorf("the LRU should have served it with cached = %v", want)
		}
		if err == nil {
			err = checkRiskMap(&resp, bigParkCells)
		}
		if err == nil && fp != w.prints[level] {
			err = fmt.Errorf("differs from the uncached response")
		}
		if err != nil {
			w.mismatch = append(w.mismatch, fmt.Sprintf("riskmap effort %v cached=%v: %v", resp.Effort, resp.Cached, err))
		}
	}, nil
}

func (w *mapsW) predictRequest(i int) serve.PredictRequest {
	return serve.PredictRequest{Model: "mfnp", Effort: w.predicts[i].effort, Cells: w.predicts[i].cells}
}

func (w *mapsW) predict(ctx context.Context, t *tracer, i int) (func(), error) {
	w.predictsSent[i] = true
	raw, err := w.srv.do(ctx, http.MethodPost, "/v1/predict", w.predictRequest(i))
	if err != nil {
		return nil, err
	}
	var resp serve.PredictResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, err
	}
	if len(resp.Probs) != mapsBatch {
		return nil, fmt.Errorf("predict returned %d probabilities for %d cells", len(resp.Probs), mapsBatch)
	}
	w.srv.afterTraces(t)
	return func() {
		if first, ok := w.probs[i]; !ok {
			w.probs[i] = resp.Probs
		} else if !equalFloats(first, resp.Probs) {
			w.mismatch = append(w.mismatch, fmt.Sprintf("predict batch %d", i))
		}
	}, nil
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

var printSeed = maphash.MakeSeed()

// cachedTrue and cachedFalse end a riskmap response body; the flag is the
// only part a cached response may differ in.
var (
	cachedTrue  = []byte(`,"cached":true}`)
	cachedFalse = []byte(`,"cached":false}`)
)

// fingerprint hashes a riskmap response body but its cached flag, and
// reports the flag.
func fingerprint(raw []byte) (uint64, bool, error) {
	body := bytes.TrimRight(raw, "\n")
	var cached bool
	switch {
	case bytes.HasSuffix(body, cachedTrue):
		cached, body = true, body[:len(body)-len(cachedTrue)]
	case bytes.HasSuffix(body, cachedFalse):
		body = body[:len(body)-len(cachedFalse)]
	default:
		return 0, false, fmt.Errorf("riskmap response does not end in its cached flag")
	}
	return maphash.Bytes(printSeed, body), cached, nil
}

// checkRiskMap tests a riskmap response: one risk and one uncertainty per
// park cell, risk in [0,1] and uncertainty in [0,1).
func checkRiskMap(r *serve.RiskMapResponse, cells int) error {
	if r.Cells != cells || len(r.Risk) != cells || len(r.Uncertainty) != cells {
		return fmt.Errorf("riskmap effort %v: cells %d, %d risks, %d uncertainties, want %d each", r.Effort, r.Cells, len(r.Risk), len(r.Uncertainty), cells)
	}
	if r.Width*r.Height < cells {
		return fmt.Errorf("riskmap effort %v: %d×%d grid cannot hold %d cells", r.Effort, r.Width, r.Height, cells)
	}
	for i := range r.Risk {
		if !(r.Risk[i] >= 0 && r.Risk[i] <= 1) {
			return fmt.Errorf("riskmap effort %v: risk %v at cell %d outside [0,1]", r.Effort, r.Risk[i], i)
		}
		if !(r.Uncertainty[i] >= 0 && r.Uncertainty[i] < 1) {
			return fmt.Errorf("riskmap effort %v: uncertainty %v at cell %d outside [0,1)", r.Effort, r.Uncertainty[i], i)
		}
	}
	return nil
}

// checkPredictMatchesMap tests that /v1/predict scores equal the riskmap's
// risk at the same cells and effort within 1e-12.
func checkPredictMatchesMap(cells []int, probs, risk []float64) error {
	for i, c := range cells {
		if math.Abs(probs[i]-risk[c]) > 1e-12 {
			return fmt.Errorf("predict %v at cell %d, riskmap risk %v", probs[i], c, risk[c])
		}
	}
	return nil
}

func (w *mapsW) check() error {
	if len(w.mismatch) > 0 {
		return fmt.Errorf("maps: responses differ from the uncached ones or the LRU model: %v", w.mismatch)
	}
	if w.riskmapsSent == 0 || w.checked != w.riskmapsSent || len(w.prints) != mapsLevels {
		return fmt.Errorf("maps: %d of %d riskmaps answered, %d of %d levels warmed", w.checked, w.riskmapsSent, len(w.prints), mapsLevels)
	}
	if len(w.probs) != len(w.predictsSent) {
		return fmt.Errorf("maps: %d of %d predict batches answered", len(w.probs), len(w.predictsSent))
	}
	// Each predict batch against the mfnp riskmap at its effort.
	ctx := context.Background()
	risk := map[float64][]float64{}
	for i := range w.predicts {
		probs, ok := w.probs[i]
		if !ok {
			continue
		}
		p := w.predicts[i]
		if _, ok := risk[p.effort]; !ok {
			raw, err := w.srv.do(ctx, http.MethodPost, "/v1/riskmap", serve.RiskMapRequest{Model: "mfnp", Effort: p.effort})
			if err != nil {
				return err
			}
			var m serve.RiskMapResponse
			if err := json.Unmarshal(raw, &m); err != nil {
				return err
			}
			risk[p.effort] = m.Risk
		}
		if err := checkPredictMatchesMap(p.cells, probs, risk[p.effort]); err != nil {
			return fmt.Errorf("maps predict batch %d: %w", i, err)
		}
	}
	return nil
}

func (w *mapsW) layers(ctx context.Context, m metrics, t *tracer) error {
	var hit, miss, sweep, encode, kb, decode, predict, resid []float64
	for _, op := range t.ops {
		rq := op.Requests[0]
		op.Layers["maps.http_ms"] = rq.ClientMS - rq.ServerMS
		if op.Label == "predict" {
			predict = append(predict, rq.ServerMS)
			op.Layers["predict.server_ms"] = rq.ServerMS
			continue
		}
		if op.Note == "cached" {
			hit = append(hit, op.MS)
		} else {
			miss = append(miss, op.MS)
		}
		var sw float64
		for _, sp := range rq.Spans {
			if sp.Name == "riskmap" {
				sw += sp.DurationMS
				sweep = append(sweep, sp.DurationMS)
			}
		}
		// The server's time outside the sweep: request decoding, the LRU
		// and response encoding.
		op.Layers["maps.sweep_ms"] = sw
		op.Layers["maps.server_rest_ms"] = rq.ServerMS - sw
		encode = append(encode, op.Extra["maps.encode_ms"])
		kb = append(kb, op.Extra["maps.response_kb"])
		decode = append(decode, op.Layers["maps.decode_ms"])
	}
	t.residual("maps.residual_ms", "maps.http_ms", "predict.server_ms", "maps.sweep_ms", "maps.server_rest_ms", "maps.decode_ms")
	for _, op := range t.ops {
		if op.Label == "riskmap" {
			resid = append(resid, op.Layers["maps.residual_ms"])
		}
	}
	m.set("maps.residual_ms", median(resid), "ms")
	m.set("maps.hit_ms", median(hit), "ms")
	m.set("maps.miss_ms", median(miss), "ms")
	m.set("maps.sweep_ms", median(sweep), "ms")
	m.set("maps.encode_ms", median(encode), "ms")
	m.set("maps.response_kb", median(kb), "KB")
	m.set("maps.decode_ms", median(decode), "ms")
	m.set("predict.server_ms", median(predict), "ms")
	c, err := w.srv.counters(ctx, lruCounters...)
	if err != nil {
		return err
	}
	// Per riskmap: 8/9 hits and 1/9 misses when the LRU behaves.
	riskmaps := float64(len(hit) + len(miss))
	m.set("maps.lru_hits", (c[lruCounters[0]]-w.counters0[lruCounters[0]])/riskmaps, "count")
	m.set("maps.lru_misses", (c[lruCounters[1]]-w.counters0[lruCounters[1]])/riskmaps, "count")

	// Planner memo growth: a fresh planner model of the park's served model
	// swept once over the whole ladder.
	parkCfg := geo.RandomConfigSized(bigParkSeed, bigParkCells)
	simCfg := poach.RandomSim(parkCfg, bigParkSeed+1)
	simCfg.Months = bigParkMonths
	big, err := paws.NewCustomScenarioCtx(ctx, parkCfg, simCfg)
	if err != nil {
		return err
	}
	sm, _ := w.svc.Served("park")
	pm, err := paws.NewPlannerModelCtx(ctx, sm.Model, big.Data, len(big.Data.Steps)-1, 0)
	if err != nil {
		return err
	}
	before := liveHeapMB()
	for k := 0; k < mapsLevels; k++ {
		if _, _, err := pm.MapsCtx(ctx, mapsEffort(k)); err != nil {
			return err
		}
	}
	m.set("planner.memo_mb", liveHeapMB()-before, "MB")
	runtime.KeepAlive(pm)
	return nil
}

func (w *mapsW) close() { w.srv.close() }
