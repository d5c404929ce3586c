package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"paws"
	"paws/internal/env"
	"paws/internal/geo"
	"paws/internal/sim"
)

// The envs workload: each operation is one remote env episode on MFNP
// (small scale) through env.Client — POST /v1/envs, one step per season,
// then delete — played by a learned or baseline policy. A round is every
// policy at the next seed of the run's pool; set-up resolves the pool's
// parks, since the client must hold the park the server builds. The pool
// is smaller than a run's episodes, so it wraps and each repeated episode
// is checked against its first run.
const (
	envSeasons = 4
	envSeeds   = 48
	// envChecked is how many of the first episodes the checks replay.
	envChecked = 12
)

var envPolicies = []string{"thompson", "softmax", "uniform"}

type envEpisode struct {
	policy string
	seed   int64
	park   *geo.Park
}

// envRun is what one episode produced: the policy's result and the
// allocations it sent, season by season.
type envRun struct {
	result  env.PolicyResult
	efforts [][]float64
}

type envsW struct {
	svc      *paws.Service
	srv      *server
	episodes []envEpisode
	next     int
	first    []*envRun
	mismatch []string
}

func envConfig() paws.EnvConfig { return paws.EnvConfig{Park: "MFNP", Seasons: envSeasons} }

func newEnvs(ctx context.Context, seed int64) (workload, error) {
	svc := paws.NewService(paws.WithScale(paws.ScaleSmall))
	w := &envsW{svc: svc, srv: startServer(svc)}
	for i := 0; i < envSeeds; i++ {
		s := opSeed(seed, i)
		// The client needs the park the server will resolve for this seed.
		e, err := svc.NewEnv(envConfig(), paws.WithSeed(s))
		if err != nil {
			w.close()
			return nil, err
		}
		for _, p := range envPolicies {
			w.episodes = append(w.episodes, envEpisode{policy: p, seed: s, park: e.Config().Park})
		}
	}
	w.first = make([]*envRun, len(w.episodes))
	// Warm-up: the first episode once.
	if _, err := w.episode(ctx, nil, w.episodes[0]); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *envsW) round() []op {
	ops := make([]op, len(envPolicies))
	for k := range ops {
		i := w.next
		ep := w.episodes[i]
		w.next = (w.next + 1) % len(w.episodes)
		ops[k] = op{label: "episode " + ep.policy, run: func(ctx context.Context, t *tracer) (func(), error) {
			if t != nil {
				t.cur.capture = true // for the codec timings
			}
			run, err := w.episode(ctx, t, ep)
			if err != nil {
				return nil, err
			}
			return func() {
				if w.first[i] == nil {
					w.first[i] = run
				} else if !sameRun(w.first[i], run) {
					w.mismatch = append(w.mismatch, fmt.Sprintf("%s seed %d", ep.policy, ep.seed))
				}
			}, nil
		}}
	}
	return ops
}

// recorder is a Stepper that keeps the allocations it forwards.
type recorder struct {
	env.Stepper
	efforts [][]float64
}

func (r *recorder) Step(ctx context.Context, effort []float64) (*env.Obs, env.SeasonStats, bool, error) {
	r.efforts = append(r.efforts, append([]float64(nil), effort...))
	return r.Stepper.Step(ctx, effort)
}

func (w *envsW) episode(ctx context.Context, t *tracer, ep envEpisode) (*envRun, error) {
	p, err := sim.ByName(ep.policy)
	if err != nil {
		return nil, err
	}
	c := env.NewClient(w.srv.base, w.srv.hc, ep.park, env.CreateRequest{Park: "MFNP", Seed: ep.seed, Seasons: envSeasons})
	rec := &recorder{Stepper: c}
	res, err := env.Drive(ctx, rec, p, env.DriveConfig{Seed: ep.seed, Seasons: envSeasons})
	if cerr := c.Close(ctx); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	w.srv.afterTraces(t)
	return &envRun{result: res, efforts: rec.efforts}, nil
}

func sameRun(a, b *envRun) bool {
	ja, _ := json.Marshal(a.result)
	jb, _ := json.Marshal(b.result)
	if !bytes.Equal(ja, jb) || len(a.efforts) != len(b.efforts) {
		return false
	}
	for i := range a.efforts {
		if !equalFloats(a.efforts[i], b.efforts[i]) {
			return false
		}
	}
	return true
}

// replay plays recorded allocations on a local Service.NewEnv environment
// and returns its season stats and the time of each step.
func (w *envsW) replay(ctx context.Context, ep envEpisode, efforts [][]float64) ([]env.SeasonStats, []float64, error) {
	e, err := w.svc.NewEnv(envConfig(), paws.WithSeed(ep.seed))
	if err != nil {
		return nil, nil, err
	}
	var stats []env.SeasonStats
	var ms []float64
	for _, eff := range efforts {
		start := time.Now()
		_, st, _, err := e.Step(ctx, eff)
		if err != nil {
			return nil, nil, err
		}
		ms = append(ms, msSince(start))
		stats = append(stats, st)
	}
	return stats, ms, nil
}

// checkReplay tests a remote episode against the local replay of its
// allocations (season stats other than the policy-reported route count)
// and against Service.Simulate of the same policy and seed (the whole
// result).
func checkReplay(remote env.PolicyResult, local []env.SeasonStats, simulated env.PolicyResult) error {
	if len(local) != len(remote.Seasons) {
		return fmt.Errorf("local replay has %d seasons, remote %d", len(local), len(remote.Seasons))
	}
	for i, l := range local {
		r := remote.Seasons[i]
		l.Routes = r.Routes
		if l != r {
			return fmt.Errorf("season %d: remote %+v, local replay %+v", i, r, l)
		}
	}
	ja, _ := json.Marshal(remote)
	jb, _ := json.Marshal(simulated)
	if !bytes.Equal(ja, jb) {
		return fmt.Errorf("remote episode %s differs from Simulate %s", ja, jb)
	}
	return nil
}

func (w *envsW) check() error {
	if len(w.mismatch) > 0 {
		return fmt.Errorf("envs: repeated episodes differ from the first run: %v", w.mismatch)
	}
	ctx := context.Background()
	for i, ep := range w.episodes[:envChecked] {
		run := w.first[i]
		if run == nil {
			return fmt.Errorf("envs: episode %d never ran", i)
		}
		local, _, err := w.replay(ctx, ep, run.efforts)
		if err != nil {
			return err
		}
		cfg := paws.SimConfig{Park: "MFNP", Seasons: envSeasons, Policies: []string{ep.policy}}
		rep, err := w.svc.Simulate(ctx, cfg, paws.WithSeed(ep.seed))
		if err != nil {
			return err
		}
		if err := checkReplay(run.result, local, rep.Policies[0]); err != nil {
			return fmt.Errorf("envs %s seed %d: %w", ep.policy, ep.seed, err)
		}
	}
	return nil
}

func (w *envsW) layers(ctx context.Context, m metrics, t *tracer) error {
	var create, step, del, serverStep, createKB, stepKB []float64
	for _, op := range t.ops {
		var codec float64
		for _, rq := range op.Requests {
			kb := float64(rq.ReqBytes+rq.RespBytes) / 1024
			switch {
			case rq.Method == "POST" && rq.Path == "/v1/envs":
				create = append(create, rq.ClientMS)
				createKB = append(createKB, kb)
				op.Layers["envs.create_ms"] += rq.ClientMS
				codec += codecMS(rq, new(env.CreateRequest), new(env.CreateResponse))
			case rq.Method == "POST" && strings.HasSuffix(rq.Path, "/step"):
				step = append(step, rq.ClientMS)
				serverStep = append(serverStep, rq.ServerMS)
				stepKB = append(stepKB, kb)
				op.Layers["envs.step_ms"] += rq.ClientMS
				codec += codecMS(rq, new(env.StepRequest), new(env.StepResponse))
			case rq.Method == "DELETE":
				del = append(del, rq.ClientMS)
				op.Layers["envs.delete_ms"] += rq.ClientMS
			}
		}
		op.Extra["envs.codec_ms"] = codec
	}
	t.residual("envs.residual_ms", "envs.create_ms", "envs.step_ms", "envs.delete_ms")
	m.set("envs.create_ms", median(create), "ms")
	m.set("envs.step_ms", median(step), "ms")
	m.set("envs.delete_ms", median(del), "ms")
	m.set("envs.server_step_ms", median(serverStep), "ms")
	m.set("envs.create_kb", median(createKB), "KB")
	m.set("envs.step_kb", median(stepKB), "KB")
	var codecs []float64
	for _, op := range t.ops {
		codecs = append(codecs, op.Extra["envs.codec_ms"])
	}
	m.set("envs.codec_ms", median(codecs), "ms")
	m.set("envs.residual_ms", t.layerMedian("envs.residual_ms"), "ms")

	// Local steps and bootstraps, on the first episodes.
	var local, boot []float64
	for i, ep := range w.episodes[:min(envChecked, len(t.ops))] {
		_, ms, err := w.replay(ctx, ep, w.first[i].efforts)
		if err != nil {
			return err
		}
		local = append(local, ms...)
		start := time.Now()
		if _, err := w.svc.NewEnv(envConfig(), paws.WithSeed(ep.seed)); err != nil {
			return err
		}
		boot = append(boot, msSince(start))
	}
	m.set("env.local_step_ms", median(local), "ms")
	m.set("env.bootstrap_ms", median(boot), "ms")
	return nil
}

// codecMS times the JSON work of one exchange, redone on its captured
// bodies: both sides' decoding and encoding of the request and response.
func codecMS(rq *reqRec, req, resp any) float64 {
	start := time.Now()
	if json.Unmarshal(rq.reqBody, req) != nil || json.Unmarshal(rq.respBody, resp) != nil {
		return 0
	}
	_, _ = json.Marshal(req)
	_, _ = json.Marshal(resp)
	return msSince(start)
}

func (w *envsW) close() { w.srv.close() }
