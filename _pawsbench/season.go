package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"paws"
	"paws/internal/dataset"
	"paws/internal/iware"
	"paws/internal/ml"
	"paws/internal/ml/bagging"
	"paws/internal/ml/tree"
	"paws/internal/obs"
	"paws/internal/poach"
	"paws/internal/sim"
)

// The season workload: each operation is one Service.Simulate episode on
// the MFNP preset (small scale) comparing the paws and uniform policies over
// a short run of seasons — retrain, risk map, plan and patrol each season —
// at a fresh seed, so the park, its history and the poachers are new every
// time.
const (
	seasonSeasons  = 2
	seasonPerRound = 4
)

var seasonPolicies = []string{"paws", "uniform"}

type season struct {
	svc  *paws.Service
	seed int64
	next int
	// seeds and reports record every episode of the timed phase.
	seeds   []int64
	reports [][]byte
}

func seasonConfig() paws.SimConfig {
	return paws.SimConfig{Park: "MFNP", Seasons: seasonSeasons, Policies: seasonPolicies}
}

func newSeason(ctx context.Context, seed int64) (workload, error) {
	w := &season{svc: paws.NewService(paws.WithScale(paws.ScaleSmall)), seed: seed}
	// Warm-up: one episode off the seed list.
	if _, err := w.svc.Simulate(ctx, seasonConfig(), paws.WithSeed(opSeed(seed, -1))); err != nil {
		return nil, err
	}
	return w, nil
}

// opSeed derives the i-th operation seed of a run from its --seed.
func opSeed(seed int64, i int) int64 { return seed*1000 + int64(i) + 1 }

func (w *season) round() []op {
	ops := make([]op, seasonPerRound)
	for i := range ops {
		s := opSeed(w.seed, w.next)
		w.next++
		ops[i] = op{label: "simulate", run: func(ctx context.Context, t *tracer) (func(), error) {
			return w.simulate(ctx, t, s)
		}}
	}
	return ops
}

func (w *season) simulate(ctx context.Context, t *tracer, seed int64) (func(), error) {
	var rec *obs.Recorder
	if t != nil {
		rec = obs.NewRecorder(1)
		tr := rec.Start("", "simulate")
		ctx = obs.WithTrace(ctx, tr)
		defer func() {
			tr.Finish("ok")
			spans := rec.Recent()[0].Spans
			t.cur.Spans = spans
			attributeSeason(t, spans)
		}()
	}
	rep, err := w.svc.Simulate(ctx, seasonConfig(), paws.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	return func() {
		b, _ := json.Marshal(rep) // a report always encodes
		w.seeds = append(w.seeds, seed)
		w.reports = append(w.reports, b)
	}, nil
}

// seasonStages maps the program's compute spans to layers. The paws
// policy's stages run one after another on the episode's critical path;
// the uniform policy runs beside it on another worker.
var seasonStages = map[string]string{
	"build":   "season.build_ms",
	"train":   "season.train_ms",
	"riskmap": "season.riskmap_ms",
	"routes":  "season.routes_ms",
}

func attributeSeason(t *tracer, spans []obs.Span) {
	for _, sp := range spans {
		if layer, ok := seasonStages[sp.Name]; ok {
			t.add(layer, sp.DurationMS)
		}
		if sp.Name == "patrol" && strings.HasPrefix(sp.Item, "paws ") {
			t.add("season.patrol_ms", sp.DurationMS)
		}
	}
}

func (w *season) check() error {
	var reps []*sim.Report
	for i, b := range w.reports {
		var rep sim.Report
		if err := json.Unmarshal(b, &rep); err != nil {
			return err
		}
		if err := checkSeasonReport(&rep, seasonPolicies, seasonSeasons); err != nil {
			return fmt.Errorf("season seed %d: %w", w.seeds[i], err)
		}
		reps = append(reps, &rep)
	}
	if err := checkPawsBeatsUniform(reps); err != nil {
		return err
	}
	// Worker-count invariance: one episode re-run sequentially.
	rep, err := w.svc.Simulate(context.Background(), seasonConfig(), paws.WithSeed(w.seeds[0]), paws.WithWorkers(1))
	if err != nil {
		return err
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(b, w.reports[0]) {
		return fmt.Errorf("season seed %d: report with 1 worker differs from the default worker count", w.seeds[0])
	}
	return nil
}

// checkSeasonReport tests a Simulate report: every policy present with one
// entry per season, season stats that sum to the totals, detections never
// above snares, and each season's patrol effort equal to the budget times
// the season's months.
func checkSeasonReport(rep *sim.Report, policies []string, seasons int) error {
	if len(rep.Policies) != len(policies) {
		return fmt.Errorf("%d policies reported, want %d", len(rep.Policies), len(policies))
	}
	want := rep.BudgetKM * float64(rep.SeasonMonths)
	if want <= 0 {
		return fmt.Errorf("budget %v km × %d months is not positive", rep.BudgetKM, rep.SeasonMonths)
	}
	for i, p := range rep.Policies {
		if p.Policy != policies[i] {
			return fmt.Errorf("policy %d is %q, want %q", i, p.Policy, policies[i])
		}
		if len(p.Seasons) != seasons {
			return fmt.Errorf("%s: %d seasons, want %d", p.Policy, len(p.Seasons), seasons)
		}
		var snares, det, disp int
		for _, s := range p.Seasons {
			if s.Detections < 0 || s.Detections > s.Snares {
				return fmt.Errorf("%s season %d: %d detections of %d snares", p.Policy, s.Season, s.Detections, s.Snares)
			}
			if math.Abs(s.EffortKM-want) > 1e-6*want {
				return fmt.Errorf("%s season %d: effort %v km, want budget × months = %v", p.Policy, s.Season, s.EffortKM, want)
			}
			snares += s.Snares
			det += s.Detections
			disp += s.Displaced
		}
		if snares != p.Snares || det != p.Detections || disp != p.Displaced {
			return fmt.Errorf("%s: seasons sum to %d/%d/%d snares/detections/displaced, totals say %d/%d/%d",
				p.Policy, snares, det, disp, p.Snares, p.Detections, p.Displaced)
		}
	}
	return nil
}

// checkPawsBeatsUniform tests the method's claim over a run: the paws
// policy detects more than uniform patrolling, summed over episodes.
func checkPawsBeatsUniform(reps []*sim.Report) error {
	var pw, un int
	for _, rep := range reps {
		for _, p := range rep.Policies {
			switch p.Policy {
			case "paws":
				pw += p.Detections
			case "uniform":
				un += p.Detections
			}
		}
	}
	if pw <= un {
		return fmt.Errorf("season: paws detected %d, uniform %d: paws must detect more", pw, un)
	}
	fmt.Printf("season: paws %d vs uniform %d detections (%+.1f%%)\n", pw, un, 100*float64(pw-un)/float64(un))
	return nil
}

// Direct training measurements use the first season's training set of the
// paws policy on MFNP: the bootstrap record of a fresh environment.
const directReps = 5

func (w *season) layers(ctx context.Context, m metrics, t *tracer) error {
	layers := []string{"season.build_ms", "season.train_ms", "season.riskmap_ms", "season.routes_ms", "season.patrol_ms"}
	t.residual("season.residual_ms", layers...)
	for _, l := range append(layers, "season.residual_ms") {
		m.set(l, t.layerMedian(l), "ms")
	}

	e, err := w.svc.NewEnv(paws.EnvConfig{Park: "MFNP"}, paws.WithSeed(w.seeds[0]))
	if err != nil {
		return err
	}
	o := e.Obs()
	d, err := dataset.BuildFromEffort(&poach.History{Park: o.Park, Months: o.Months, Effort: o.Effort, Observations: o.Observations}, dataset.StandardConfig())
	if err != nil {
		return err
	}
	pts := d.AllPoints()
	X := make([][]float64, len(pts))
	y := make([]int, len(pts))
	eff := make([]float64, len(pts))
	for i, p := range pts {
		X[i], y[i], eff[i] = p.Features, p.Label, p.Effort
	}
	// The paws policy's options: DTB-iW, 6 thresholds, 5 members, depth 10.
	mf := int(math.Sqrt(float64(len(X[0]))) + 0.5)
	treeOf := func(seed int64) ml.Classifier {
		return tree.New(tree.Config{MaxDepth: 10, MinLeaf: 2, MaxFeatures: mf, Seed: seed})
	}
	bagOf := func(seed int64) ml.Classifier {
		return bagging.New(treeOf, bagging.Config{Members: 5, Seed: seed})
	}

	fitMS, fitAllocs, _, err := direct(func(k int64) error { return treeOf(k).Fit(X, y) })
	if err != nil {
		return err
	}
	m.set("tree.fit_ms", fitMS, "ms")
	m.set("tree.fit_allocs", fitAllocs, "count")
	bagMS, _, _, err := direct(func(k int64) error { return bagOf(k).(*bagging.Ensemble).FitCtx(ctx, X, y) })
	if err != nil {
		return err
	}
	m.set("bagging.fit_ms", bagMS, "ms")
	thresholds := dataset.EffortPercentileThresholds(pts, 6, 80)
	iwMS, _, iwBytes, err := direct(func(k int64) error {
		_, err := iware.FitCtx(ctx, X, y, eff, iware.Config{Thresholds: thresholds, WeakLearner: bagOf, Seed: k})
		return err
	})
	if err != nil {
		return err
	}
	m.set("iware.fit_ms", iwMS, "ms")
	m.set("iware.fit_alloc_mb", iwBytes/(1<<20), "MB")
	model, err := paws.TrainCtx(ctx, pts, paws.TrainOptions{Kind: paws.DTBiW, Thresholds: 6, Members: 5, Seed: 1})
	if err != nil {
		return err
	}
	calMS, _, _, err := direct(func(int64) error {
		_, err := paws.NewPlannerModelCtx(ctx, model, d, len(d.Steps)-1, 0)
		return err
	})
	if err != nil {
		return err
	}
	m.set("planner.calibrate_ms", calMS, "ms")
	return nil
}

// direct times directReps calls of f and returns the medians of wall time,
// heap allocations and allocated bytes per call.
func direct(f func(k int64) error) (ms, allocs, bytes float64, err error) {
	var times, counts, sizes []float64
	for k := 0; k < directReps; k++ {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		start := time.Now()
		if err := f(int64(k + 1)); err != nil {
			return 0, 0, 0, err
		}
		times = append(times, msSince(start))
		runtime.ReadMemStats(&b)
		counts = append(counts, float64(b.Mallocs-a.Mallocs))
		sizes = append(sizes, float64(b.TotalAlloc-a.TotalAlloc))
	}
	return median(times), median(counts), median(sizes), nil
}

func (w *season) close() {}
