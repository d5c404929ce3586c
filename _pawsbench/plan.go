package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"time"

	"paws"
	"paws/internal/geo"
	"paws/internal/plan"
	"paws/internal/poach"
	"paws/internal/serve"
)

// The plan workload: each operation is one POST /v1/plan at β = 0.9. A
// round covers every MFNP post (small scale, DTB-iW, the default solver)
// and every post of a 10^5-cell procedural park, which plans
// hierarchically; the order is shuffled by the seed.
const (
	planBeta = 0.9
	// Service.Plan's defaults: region radius 4 capped at 40 cells, T = 8,
	// K = 2 patrols, 8 PWL segments.
	planRadius   = 4
	planMaxCells = 40
	planT        = 8
	planK        = 2
	planSegments = 8
	// bigParkSpec is the 10^5-cell procedural park of the plan and maps
	// workloads, with 24 months of simulated history.
	bigParkSeed   = 7
	bigParkCells  = 100_000
	bigParkMonths = 24
)

type planReq struct {
	Model string  `json:"model"`
	Post  int     `json:"post"`
	Beta  float64 `json:"beta"`
}

func (r planReq) label() string { return fmt.Sprintf("%s post %d", r.Model, r.Post) }

// planRepeats is how many times a round makes each request. Every post of
// both models is made equally often, as pawsload draws a model's posts
// uniformly; twice gives a round of 40 operations, the fewest for which
// tail_ms is a percentile rather than the median, and two MFNP post 0
// solves, whose node counts vary with the wall clock.
const planRepeats = 2

type planW struct {
	svc   *paws.Service
	srv   *server
	reqs  []planReq // every distinct request
	order []planReq // one round
	sent  map[planReq]int
	resp  map[planReq][]serve.PlanResponse
}

// trainServing registers the two served models of the plan and maps
// workloads: "mfnp", the MFNP small preset with a DTB-iW model as pawsd
// trains it (seed 7, three training years, serving context frozen before
// the test year), and "park", the 10^5-cell procedural park with a DTB-iW
// model of 5 thresholds × 5 members.
func trainServing(ctx context.Context) (*paws.Service, error) {
	svc := paws.NewService(paws.WithSeed(7), paws.WithKind(paws.DTBiW), paws.WithPreset("MFNP", paws.ScaleSmall), paws.WithTrainYears(3))
	sc, err := svc.Scenario(ctx, "MFNP")
	if err != nil {
		return nil, err
	}
	testYear := sc.Data.Steps[len(sc.Data.Steps)-1].Year
	split, err := sc.Data.SplitByTestYear(testYear, 3)
	if err != nil {
		return nil, err
	}
	m, err := svc.Train(ctx, split.Train)
	if err != nil {
		return nil, err
	}
	testFrom, _ := sc.Data.StepsForYear(testYear)
	if _, err := svc.AddModel(ctx, "mfnp", m, sc.Data, testFrom-1); err != nil {
		return nil, err
	}

	parkCfg := geo.RandomConfigSized(bigParkSeed, bigParkCells)
	simCfg := poach.RandomSim(parkCfg, bigParkSeed+1)
	simCfg.Months = bigParkMonths
	big, err := paws.NewCustomScenarioCtx(ctx, parkCfg, simCfg)
	if err != nil {
		return nil, err
	}
	bm, err := paws.TrainCtx(ctx, big.Data.AllPoints(), paws.TrainOptions{Kind: paws.DTBiW, Thresholds: 5, Members: 5, Seed: 53})
	if err != nil {
		return nil, err
	}
	if _, err := svc.AddModel(ctx, "park", bm, big.Data, len(big.Data.Steps)-1); err != nil {
		return nil, err
	}
	return svc, nil
}

func newPlan(ctx context.Context, seed int64) (workload, error) {
	svc, err := trainServing(ctx)
	if err != nil {
		return nil, err
	}
	w := &planW{svc: svc, srv: startServer(svc), sent: map[planReq]int{}, resp: map[planReq][]serve.PlanResponse{}}
	for _, name := range []string{"mfnp", "park"} {
		sm, _ := svc.Served(name)
		for p := range sm.Park().Posts {
			w.reqs = append(w.reqs, planReq{Model: name, Post: p, Beta: planBeta})
		}
	}
	for _, r := range w.reqs {
		for k := 0; k < planRepeats; k++ {
			w.order = append(w.order, r)
		}
	}
	rand.New(rand.NewPCG(uint64(seed), 0x706c616e)).Shuffle(len(w.order), func(i, j int) {
		w.order[i], w.order[j] = w.order[j], w.order[i]
	})
	// Warm-up: every request once, which fills the planner memos, except
	// MFNP post 0, whose memo is filled by a Frank-Wolfe solve of the same
	// region instead of the ~10 s MILP refinement.
	for _, r := range w.reqs {
		if r.Model == "mfnp" && r.Post == 0 {
			if _, _, err := w.solveDirect(ctx, r, plan.SolverFrankWolfe); err != nil {
				w.close()
				return nil, err
			}
			continue
		}
		if _, err := w.post(ctx, r); err != nil {
			w.close()
			return nil, err
		}
	}
	w.resp = map[planReq][]serve.PlanResponse{}
	return w, nil
}

func (w *planW) post(ctx context.Context, r planReq) (serve.PlanResponse, error) {
	var resp serve.PlanResponse
	raw, err := w.srv.do(ctx, http.MethodPost, "/v1/plan", r)
	if err != nil {
		return resp, err
	}
	err = json.Unmarshal(raw, &resp)
	return resp, err
}

func (w *planW) round() []op {
	ops := make([]op, len(w.order))
	for i, r := range w.order {
		r := r
		ops[i] = op{label: r.label(), run: func(ctx context.Context, t *tracer) (func(), error) {
			w.sent[r]++
			resp, err := w.post(ctx, r)
			if err != nil {
				return nil, err
			}
			w.resp[r] = append(w.resp[r], resp)
			w.srv.afterTraces(t)
			return nil, nil
		}}
	}
	return ops
}

func (w *planW) check() error {
	total := 0
	for _, r := range w.reqs {
		total += w.sent[r]
		if len(w.resp[r]) != w.sent[r] {
			return fmt.Errorf("plan %s: %d of %d requests answered", r.label(), len(w.resp[r]), w.sent[r])
		}
		sm, _ := w.svc.Served(r.Model)
		park := sm.Park()
		for _, resp := range w.resp[r] {
			hier := park.Grid.NumCells() >= paws.HierAutoCells
			if err := checkPlan(park, park.Posts[r.Post], &resp, planK, planT, hier); err != nil {
				return fmt.Errorf("plan %s: %w", r.label(), err)
			}
		}
	}
	if total == 0 {
		return fmt.Errorf("plan: no request made")
	}
	return nil
}

// checkPlan tests a /v1/plan response: one non-negative effort per region
// cell summing to K·T, K routes of T+1 cells that start and end at the
// post, move only between grid neighbours (or wait) and stay in the
// region, and the hierarchical flag set exactly when expected.
func checkPlan(park *geo.Park, postCell int, p *serve.PlanResponse, k, t int, hier bool) error {
	if len(p.Effort) != len(p.Cells) || len(p.Cells) == 0 {
		return fmt.Errorf("%d efforts for %d cells", len(p.Effort), len(p.Cells))
	}
	var sum float64
	for i, e := range p.Effort {
		if e < 0 || math.IsNaN(e) {
			return fmt.Errorf("effort %v at cell %d", e, p.Cells[i])
		}
		sum += e
	}
	if want := float64(k * t); math.Abs(sum-want) > 1e-6*want {
		return fmt.Errorf("efforts sum to %v, want K·T = %v", sum, want)
	}
	if p.Hierarchical != hier {
		return fmt.Errorf("hierarchical = %v, want %v", p.Hierarchical, hier)
	}
	in := make(map[int]bool, len(p.Cells))
	for _, c := range p.Cells {
		in[c] = true
	}
	if len(p.Routes) != k {
		return fmt.Errorf("%d routes, want K = %d", len(p.Routes), k)
	}
	var nbr []int
	for ri, route := range p.Routes {
		if len(route) != t+1 {
			return fmt.Errorf("route %d has %d cells, want T+1 = %d", ri, len(route), t+1)
		}
		if route[0] != postCell || route[t] != postCell {
			return fmt.Errorf("route %d runs %d → %d, want start and end at post cell %d", ri, route[0], route[t], postCell)
		}
		for i, c := range route {
			if !in[c] {
				return fmt.Errorf("route %d leaves the region at cell %d", ri, c)
			}
			if i == 0 || c == route[i-1] {
				continue
			}
			nbr = park.Grid.Neighbors4(route[i-1], nbr[:0])
			adjacent := false
			for _, n := range nbr {
				adjacent = adjacent || n == c
			}
			if !adjacent {
				return fmt.Errorf("route %d jumps from cell %d to non-neighbour %d", ri, route[i-1], c)
			}
		}
	}
	return nil
}

// solveDirect runs the planner on the region Service.Plan builds for the
// request, with the given solver, and returns the plan and its wall time.
func (w *planW) solveDirect(ctx context.Context, r planReq, solver plan.SolverKind) (*plan.Plan, float64, error) {
	sm, _ := w.svc.Served(r.Model)
	park := sm.Park()
	cfg := plan.Config{T: planT, K: planK, Segments: planSegments, Beta: r.Beta, Solver: solver}
	start := time.Now()
	var p *plan.Plan
	var err error
	if park.Grid.NumCells() >= paws.HierAutoCells {
		p, _, err = plan.SolveHierarchicalCtx(ctx, park, park.Posts[r.Post], sm.PlannerModel(), cfg, plan.HierOptions{FineMaxCells: planMaxCells})
	} else {
		var region *plan.Region
		region, err = plan.NewRegion(park, park.Posts[r.Post], planRadius, planMaxCells)
		if err == nil {
			p, err = plan.Solve(region, sm.PlannerModel(), cfg)
		}
	}
	return p, msSince(start), err
}

func (w *planW) layers(ctx context.Context, m metrics, t *tracer) error {
	for _, op := range t.ops {
		if len(op.Requests) != 1 {
			continue
		}
		rq := op.Requests[0]
		op.Layers["plan.server_ms"] = rq.ServerMS
		op.Layers["plan.http_ms"] = rq.ClientMS - rq.ServerMS
		var solve float64
		for _, sp := range rq.Spans {
			switch sp.Name {
			case "solve":
				solve += sp.DurationMS
			case "coarse":
				solve += sp.DurationMS
				op.Layers["plan.coarse_ms"] += sp.DurationMS
			case "refine":
				solve += sp.DurationMS
				op.Layers["plan.refine_ms"] += sp.DurationMS
			case "routes":
				op.Layers["plan.routes_ms"] += sp.DurationMS
			}
		}
		op.Layers["plan.solve_ms"] = solve
	}
	t.residual("plan.residual_ms", "plan.http_ms", "plan.solve_ms", "plan.routes_ms")
	for _, l := range []string{"plan.server_ms", "plan.http_ms", "plan.solve_ms", "plan.coarse_ms", "plan.refine_ms", "plan.routes_ms", "plan.residual_ms"} {
		m.set(l, t.layerMedian(l), "ms")
	}

	// Direct solves of every request's region: Frank-Wolfe alone, then the
	// default (Auto) solver, whose MILP refinement is the difference.
	var fw []float64
	var milpMS, nodes, runs, wins float64
	for _, r := range w.reqs {
		_, fwMS, err := w.solveDirect(ctx, r, plan.SolverFrankWolfe)
		if err != nil {
			return err
		}
		p, autoMS, err := w.solveDirect(ctx, r, plan.SolverAuto)
		if err != nil {
			return err
		}
		fw = append(fw, fwMS)
		milpMS += autoMS - fwMS
		nodes += float64(p.Nodes)
		if p.Binaries > 0 {
			runs++
		}
		if !p.Relaxed {
			wins++
		}
		fmt.Printf("  direct %-16s fw=%.1f ms auto=%.1f ms binaries=%d nodes=%d relaxed=%v\n", r.label(), fwMS, autoMS, p.Binaries, p.Nodes, p.Relaxed)
	}
	m.set("plan.fw_ms", median(fw), "ms")
	m.set("plan.milp_ms", milpMS, "ms")
	m.set("plan.milp_nodes", nodes, "count")
	m.set("plan.milp_runs", runs, "count")
	m.set("plan.milp_wins", wins, "count")
	return nil
}

func (w *planW) close() { w.srv.close() }
