package main

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"paws"
	"paws/internal/env"
	"paws/internal/plan"
	"paws/internal/serve"
	"paws/internal/sim"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		beyond int
	}{
		{1, 50, 0},
		{39, 50, 19},
		{40, 75, 10},
		{99, 75, 24},
		{100, 90, 10},
		{199, 90, 19},
		{200, 95, 10},
		{999, 95, 49},
		{1000, 99, 10},
		{10000, 99.9, 10},
	} {
		got := tailOf(seq(tc.n))
		if got.pct != tc.pct || got.beyond != tc.beyond {
			t.Errorf("n=%d: tail p%g with %d beyond, want p%g with %d", tc.n, got.pct, got.beyond, tc.pct, tc.beyond)
		}
		if tc.pct == 50 && got.value != median(seq(tc.n)) {
			t.Errorf("n=%d: below 40 samples the tail must be the median", tc.n)
		}
		if tc.pct > 50 && got.beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, got.beyond)
		}
	}
	// The value is the nearest-rank percentile: at n=100, p90 is the 90th
	// smallest of 1..100.
	if got := tailOf(seq(100)).value; got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles(1..10) = %v", got)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got := quartiles([]float64{1, 2, 4, 8, 16}); got != [3]float64{1.5, 4, 12} {
		t.Errorf("quartiles = %v", got)
	}
}

// mfnpService registers a DTB-iW model on the MFNP small preset.
func mfnpService(t *testing.T) *paws.Service {
	t.Helper()
	ctx := context.Background()
	svc := paws.NewService(paws.WithSeed(7), paws.WithKind(paws.DTBiW), paws.WithPreset("MFNP", paws.ScaleSmall), paws.WithEnsembleSize(3), paws.WithThresholds(3))
	sc, err := svc.Scenario(ctx, "MFNP")
	if err != nil {
		t.Fatal(err)
	}
	m, err := svc.Train(ctx, sc.Data.AllPoints())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddModel(ctx, "m", m, sc.Data, len(sc.Data.Steps)-1); err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestCheckPlanRejectsCorruption(t *testing.T) {
	svc := mfnpService(t)
	sm, _ := svc.Served("m")
	park := sm.Park()
	res, err := svc.Plan(context.Background(), "m", 1, 0.9, paws.WithSolver(plan.SolverFrankWolfe))
	if err != nil {
		t.Fatal(err)
	}
	post := park.Posts[1]
	fresh := func() *serve.PlanResponse {
		p := &serve.PlanResponse{Cells: append([]int(nil), res.Cells...), Effort: append([]float64(nil), res.Effort...)}
		for _, r := range res.Routes {
			p.Routes = append(p.Routes, append([]int(nil), r...))
		}
		return p
	}
	if err := checkPlan(park, post, fresh(), planK, planT, false); err != nil {
		t.Fatalf("a real plan fails the check: %v", err)
	}
	outside := -1
	in := map[int]bool{}
	for _, c := range res.Cells {
		in[c] = true
	}
	for c := 0; c < park.Grid.NumCells() && outside < 0; c++ {
		if !in[c] {
			outside = c
		}
	}
	for name, corrupt := range map[string]func(p *serve.PlanResponse){
		"route does not return to its post": func(p *serve.PlanResponse) { p.Routes[0][planT] = p.Cells[1] },
		"route starts elsewhere":            func(p *serve.PlanResponse) { p.Routes[1][0] = p.Cells[len(p.Cells)-1] },
		"route jumps":                       func(p *serve.PlanResponse) { p.Routes[0][2] = p.Cells[len(p.Cells)-1] },
		"route leaves the region":           func(p *serve.PlanResponse) { p.Routes[0][3] = outside },
		"route too short":                   func(p *serve.PlanResponse) { p.Routes[0] = p.Routes[0][:planT] },
		"a route missing":                   func(p *serve.PlanResponse) { p.Routes = p.Routes[:1] },
		"negative effort":                   func(p *serve.PlanResponse) { p.Effort[0], p.Effort[1] = -1, p.Effort[1]+p.Effort[0]+1 },
		"effort not K·T":                    func(p *serve.PlanResponse) { p.Effort[0] += 0.5 },
		"effort length":                     func(p *serve.PlanResponse) { p.Effort = p.Effort[1:] },
		"hierarchical flag":                 func(p *serve.PlanResponse) { p.Hierarchical = true },
	} {
		p := fresh()
		corrupt(p)
		if err := checkPlan(park, post, p, planK, planT, false); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func riskResponse(n int) *serve.RiskMapResponse {
	r := &serve.RiskMapResponse{Model: "park", Effort: 1, Width: n, Height: 1, Cells: n}
	for i := 0; i < n; i++ {
		r.Risk = append(r.Risk, float64(i)/float64(n))
		r.Uncertainty = append(r.Uncertainty, 0.5)
	}
	return r
}

func TestCheckRiskMapRejectsCorruption(t *testing.T) {
	if err := checkRiskMap(riskResponse(10), 10); err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(r *serve.RiskMapResponse){
		"risk above 1":        func(r *serve.RiskMapResponse) { r.Risk[3] = 1.0000001 },
		"negative risk":       func(r *serve.RiskMapResponse) { r.Risk[3] = -0.1 },
		"uncertainty of 1":    func(r *serve.RiskMapResponse) { r.Uncertainty[0] = 1 },
		"short risk":          func(r *serve.RiskMapResponse) { r.Risk = r.Risk[:9] },
		"wrong cell count":    func(r *serve.RiskMapResponse) { r.Cells = 9 },
		"grid too small":      func(r *serve.RiskMapResponse) { r.Width = 3 },
		"missing uncertainty": func(r *serve.RiskMapResponse) { r.Uncertainty = nil },
	} {
		r := riskResponse(10)
		corrupt(r)
		if err := checkRiskMap(r, 10); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFingerprintIgnoresOnlyCachedFlag(t *testing.T) {
	r := riskResponse(5)
	uncached, _ := json.Marshal(r)
	r.Cached = true
	cached, _ := json.Marshal(r)
	fu, cu, err := fingerprint(append(uncached, '\n'))
	if err != nil || cu {
		t.Fatalf("uncached: %v %v", cu, err)
	}
	fc, cc, err := fingerprint(cached)
	if err != nil || !cc {
		t.Fatalf("cached: %v %v", cc, err)
	}
	if fu != fc {
		t.Error("a cached response must fingerprint like the uncached one")
	}
	r.Risk[2] = 0.41
	changed, _ := json.Marshal(r)
	if f, _, _ := fingerprint(changed); f == fc {
		t.Error("a changed risk value must change the fingerprint")
	}
	if _, _, err := fingerprint([]byte(`{"risk":[]}`)); err == nil {
		t.Error("a body without the cached flag must be rejected")
	}
}

func TestCheckPredictMatchesMap(t *testing.T) {
	risk := []float64{0.1, 0.2, 0.3}
	if err := checkPredictMatchesMap([]int{2, 0}, []float64{0.3, 0.1}, risk); err != nil {
		t.Fatal(err)
	}
	if err := checkPredictMatchesMap([]int{2, 0}, []float64{0.3, 0.1 + 1e-9}, risk); err == nil {
		t.Error("a prediction 1e-9 off the map must be rejected")
	}
}

func TestCheckSeasonRejectsCorruption(t *testing.T) {
	svc := paws.NewService(paws.WithScale(paws.ScaleSmall), paws.WithSeed(3))
	rep, err := svc.Simulate(context.Background(), paws.SimConfig{Park: "MFNP", Seasons: 2, Policies: seasonPolicies})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(rep)
	fresh := func() *sim.Report {
		var r sim.Report
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		return &r
	}
	if err := checkSeasonReport(fresh(), seasonPolicies, 2); err != nil {
		t.Fatalf("a real report fails the check: %v", err)
	}
	for name, corrupt := range map[string]func(r *sim.Report){
		"detections above snares": func(r *sim.Report) {
			s := &r.Policies[0].Seasons[0]
			r.Policies[0].Detections += s.Snares + 1 - s.Detections
			s.Detections = s.Snares + 1
		},
		"totals do not sum": func(r *sim.Report) { r.Policies[1].Snares++ },
		"effort off budget": func(r *sim.Report) { r.Policies[0].Seasons[1].EffortKM *= 1.01 },
		"season missing":    func(r *sim.Report) { r.Policies[1].Seasons = r.Policies[1].Seasons[:1] },
		"policy missing":    func(r *sim.Report) { r.Policies = r.Policies[:1] },
	} {
		r := fresh()
		corrupt(r)
		if err := checkSeasonReport(r, seasonPolicies, 2); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	r := fresh()
	r.Policies[0].Detections = r.Policies[1].Detections
	if err := checkPawsBeatsUniform([]*sim.Report{r}); err == nil {
		t.Error("paws detecting no more than uniform must be rejected")
	}
}

func TestCheckReplayRejectsMismatch(t *testing.T) {
	remote := env.PolicyResult{Policy: "uniform", Snares: 5, Detections: 2, Seasons: []env.SeasonStats{
		{Season: 0, Snares: 3, Detections: 1, Routes: 4, EffortKM: 10},
		{Season: 1, StartMonth: 3, Snares: 2, Detections: 1, Routes: 4, EffortKM: 10},
	}}
	local := append([]env.SeasonStats(nil), remote.Seasons...)
	for i := range local {
		local[i].Routes = 0 // a local replay has no policy routes
	}
	if err := checkReplay(remote, local, remote); err != nil {
		t.Fatal(err)
	}
	bad := append([]env.SeasonStats(nil), local...)
	bad[1].Detections = 2
	if err := checkReplay(remote, bad, remote); err == nil || !strings.Contains(err.Error(), "season 1") {
		t.Errorf("a replay mismatch must be rejected, got %v", err)
	}
	if err := checkReplay(remote, local[:1], remote); err == nil {
		t.Error("a short replay must be rejected")
	}
	other := remote
	other.Detections = 3
	if err := checkReplay(remote, local, other); err == nil {
		t.Error("a Simulate mismatch must be rejected")
	}
}

func TestMapsSchedule(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		s, err := newMapsSchedule(seed)
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		for _, c := range s.cached {
			if c {
				hits++
			}
		}
		if misses := len(s.cached) - hits; misses != mapsCold || hits != mapsHitsPerMiss*misses {
			t.Errorf("seed %d: %d hits and %d misses a round, want %d and %d", seed, hits, misses, mapsHitsPerMiss*mapsCold, mapsCold)
		}
		seen := map[int]bool{}
		for _, k := range s.warm {
			seen[k] = true
		}
		if len(s.warm) != mapsLevels || len(seen) != mapsLevels {
			t.Errorf("seed %d: warm-up of %d requests over %d levels, want each of %d once", seed, len(s.warm), len(seen), mapsLevels)
		}
		// From an empty cache, the warm-up misses every time and leaves
		// the LRU where two rounds in a row give the schedule's flags.
		var lru []int
		for _, k := range s.warm {
			if lruUse(&lru, k) {
				t.Fatalf("seed %d: warm-up level %d cached", seed, k)
			}
		}
		for round := 0; round < 2; round++ {
			for i, k := range s.levels {
				if got := lruUse(&lru, k); got != s.cached[i] {
					t.Fatalf("seed %d round %d: riskmap %d cached = %v after the warm-up, schedule says %v", seed, round, i, got, s.cached[i])
				}
			}
		}
	}
}

func TestLRUModel(t *testing.T) {
	var lru []int
	for k := 0; k < mapsLRU; k++ {
		lruUse(&lru, k)
	}
	if !lruUse(&lru, 0) {
		t.Error("a key among the last 64 must be cached")
	}
	lruUse(&lru, mapsLRU) // evicts 1, the least recently used
	if lruUse(&lru, 1) {
		t.Error("the least recently used key must be evicted by an insert")
	}
	if len(lru) != mapsLRU {
		t.Errorf("model holds %d keys, want %d", len(lru), mapsLRU)
	}
}
