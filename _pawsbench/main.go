// Command pawsbench is the PAWS benchmark: one process that drives the
// program from outside — through paws.Service, an in-process pawsd handler
// (serve.New) on a loopback listener, and the public functions of the
// layers — measures one workload, checks its outputs, and prints one JSON
// result line.
//
//	pawsbench --workload season --seed 1 --seconds 10 --trace 0
//	pawsbench --steady 10 --workload plan --seconds 10
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate traced run. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark workload: a set-up that builds and warms the
// serving state, the operations of one round, the output checks, and the
// per-layer measurements of the traced run.
type workload interface {
	// round returns the operations of the next round, in run order. Every
	// round of a run makes the same kinds of operation in the same order.
	round() []op
	// check tests the outputs recorded by the timed phase.
	check() error
	// layers runs the traced phase's direct measurements and adds the
	// per-layer metrics derived from the recorded traces to m.
	layers(ctx context.Context, m metrics, t *tracer) error
	close()
}

// op is one closed-loop operation. run may return a verify function: the
// checking of its outputs that must stay out of the operation's latency.
type op struct {
	label string
	run   func(ctx context.Context, t *tracer) (verify func(), err error)
}

var workloadNames = []string{"season", "plan", "maps", "envs"}

var workloads = map[string]func(ctx context.Context, seed int64) (workload, error){
	"season": newSeason,
	"plan":   newPlan,
	"maps":   newMaps,
	"envs":   newEnvs,
}

// setupReps is how many times a run builds its workload's serving state;
// setup_s is the median. Only the last instance is measured. Two keeps the
// slowest workload's run (maps) near 35 s.
const setupReps = 2

func main() {
	name := flag.String("workload", "", "workload: season, plan, maps or envs")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed phase (whole rounds are always completed)")
	trace := flag.Int("trace", 0, "1 runs the traced phase and reports per-layer metrics")
	steady := flag.Int("steady", 0, "run the workload this many times (seeds 1..N) in child processes and print each metric's spread")
	flag.Parse()
	if err := checkRoot(); err != nil {
		fail(err)
	}
	if *steady > 0 {
		if err := runSteady(*name, *steady, *seconds, *trace); err != nil {
			fail(err)
		}
		return
	}
	build, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want season, plan, maps or envs)", *name))
	}
	res, err := run(*name, build, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pawsbench:", err)
	os.Exit(1)
}

// checkRoot makes sure the benchmark runs from the root of a PAWS checkout:
// it writes only below .bench_build there.
func checkRoot() error {
	for _, f := range []string{"go.mod", "internal/serve"} {
		if _, err := os.Stat(f); err != nil {
			return fmt.Errorf("not the root of a PAWS checkout (%s: %v)", f, err)
		}
	}
	return nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func run(name string, build func(context.Context, int64) (workload, error), seed int64, d time.Duration, traced bool) (*result, error) {
	ctx := context.Background()
	// Set-up: build the serving state setupReps times (each ending in its
	// warm-up) and keep the last; setup_s is the median.
	var w workload
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if w != nil {
			release(w)
		}
		start := time.Now()
		var err error
		w, err = build(ctx, seed)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if traced {
		return runTraced(ctx, name, w, seed, d)
	}
	defer w.close()

	st := timed(ctx, w.round, d, 0, nil)
	res, err := finish(name, seed, w, st)
	if err != nil {
		return nil, err
	}
	ms := st.okLatencies()
	done := len(ms)
	tail := tailOf(ms)
	m := res.Metrics
	m.set("setup_s", median(setups), "s")
	m.set("ops_per_s", float64(done)/st.wall.Seconds(), "1/s")
	m.set("p50_ms", median(ms), "ms")
	m.set("tail_ms", tail.value, "ms")
	m.set("cpu_ms_per_op", st.cpuMS/float64(done), "ms")
	m.set("alloc_mb_per_op", float64(st.allocBytes)/float64(done)/(1<<20), "MB")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	fmt.Printf("tail_ms is p%g of %d samples (%d beyond it)\n", tail.pct, len(ms), tail.beyond)
	fmt.Printf("setup_s runs: %v\n", setups)
	printMetrics(m)
	return res, nil
}

// release closes a workload and returns its memory before the next one is
// built.
func release(w workload) {
	w.close()
	runtime.GC()
	debug.FreeOSMemory()
}

// finish reports a timed phase and runs the workload's output checks.
func finish(name string, seed int64, w workload, st *phase) (*result, error) {
	fmt.Printf("workload %s seed %d: %d ops in %d rounds over %.2f s, %d failed\n",
		name, seed, len(st.samples), st.rounds, st.wall.Seconds(), st.failed)
	for _, s := range st.samples {
		if s.err != nil {
			fmt.Printf("  failed: %s: %v\n", s.label, s.err)
		}
	}
	if st.failed == len(st.samples) {
		return nil, fmt.Errorf("%s: no operation completed", name)
	}
	byLabel := map[string][]float64{}
	var labels []string
	for _, s := range st.samples {
		if _, ok := byLabel[s.label]; !ok {
			labels = append(labels, s.label)
		}
		byLabel[s.label] = append(byLabel[s.label], s.ms)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Printf("  %-24s n=%-4d median %.2f ms\n", l, len(byLabel[l]), median(byLabel[l]))
	}
	res := &result{Attempted: len(st.samples), Failed: st.failed, Metrics: metrics{}}
	// Every operation of a workload must succeed; a failed one makes the
	// run incorrect even when the outputs that did arrive pass.
	if err := w.check(); err != nil {
		fmt.Printf("%s check FAILED: %v\n", name, err)
	} else if st.failed > 0 {
		fmt.Printf("%s: %d operations failed\n", name, st.failed)
	} else {
		res.Correct = true
		fmt.Printf("%s checks passed\n", name)
	}
	return res, nil
}

// runTraced is the traced run: the workload's timed phase with every
// operation traced, its layer attribution, the tracing overhead, and then
// a short traced pass over each other workload, so that the result carries
// every per-layer metric.
func runTraced(ctx context.Context, name string, w workload, seed int64, d time.Duration) (*result, error) {
	live := liveHeapMB()
	t := newTracer()
	st := timed(ctx, w.round, d, 0, t)
	// The layers first: they read server counters the checks would move.
	m := metrics{}
	if err := w.layers(ctx, m, t); err != nil {
		release(w)
		return nil, fmt.Errorf("%s traced phase: %w", name, err)
	}
	// Tracing overhead: the first traced operations replayed untraced, on
	// the same inputs. The traced phase ran whole rounds, so the serving
	// state (the riskmap LRU above all) is where it was when they first
	// ran; the checks below, which may move it, come after.
	n := min(overheadOps, len(st.ops))
	un := timed(ctx, replay(st.ops[:n]), 0, n, nil)
	over := overhead(st.samples, un.samples)
	res, err := finish(name, seed, w, st)
	if err != nil {
		release(w)
		return nil, err
	}
	res.Correct = res.Correct && un.failed == 0
	res.Metrics = m
	done := float64(len(st.okLatencies()))
	m.set("gc.cycles_per_op", float64(st.gcCycles)/done, "count")
	m.set("gc.pause_ms_per_op", st.gcPauseMS/done, "ms")
	m.set("heap.live_mb", live, "MB")
	m.set("trace.overhead_ms", over, "ms")
	m.set("trace.overhead_pct", 100*over/median(un.okLatencies()), "%")
	release(w)
	t.printAttribution(name)
	path, err := t.write(name, seed)
	if err != nil {
		return nil, err
	}
	fmt.Println("spans written to", path)

	for _, other := range workloadNames {
		if other == name {
			continue
		}
		ok, err := companion(ctx, other, seed, m)
		if err != nil {
			return nil, fmt.Errorf("%s pass of the %s traced run: %w", other, name, err)
		}
		res.Correct = res.Correct && ok
	}
	printMetrics(m)
	return res, nil
}

// companionOps is how many operations a companion pass traces.
const companionOps = 12

// replay runs the given operations again, once.
func replay(ops []op) func() []op {
	return func() []op { return ops }
}

// prefix limits each round to its first n operations.
func prefix(round func() []op, n int) func() []op {
	return func() []op {
		ops := round()
		return ops[:min(n, len(ops))]
	}
}

// companion builds another workload once, traces a few of its operations,
// checks them and adds its layer metrics to m (keeping those m has).
func companion(ctx context.Context, name string, seed int64, m metrics) (bool, error) {
	w, err := workloads[name](ctx, seed)
	if err != nil {
		return false, err
	}
	defer release(w)
	t := newTracer()
	st := timed(ctx, prefix(w.round, companionOps), 0, companionOps, t)
	own := metrics{}
	if err := w.layers(ctx, own, t); err != nil {
		return false, err
	}
	res, err := finish(name, seed, w, st)
	if err != nil {
		return false, err
	}
	for k, v := range own {
		if _, ok := m[k]; !ok {
			m[k] = v
		}
	}
	return res.Correct, nil
}

// overheadOps is how many traced operations the overhead estimate replays
// untraced (fewer when the traced phase made fewer).
const overheadOps = 24

// overhead is the median over operations of traced minus untraced latency,
// pairing each traced operation with its untraced replay.
func overhead(traced, untraced []sample) float64 {
	var d []float64
	for i := range untraced {
		if i < len(traced) && traced[i].err == nil && untraced[i].err == nil {
			d = append(d, traced[i].ms-untraced[i].ms)
		}
	}
	return median(d)
}

func printMetrics(m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-24s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// outDir is where the benchmark writes its files, inside the checkout.
func outDir() (string, error) {
	dir := filepath.Join(".bench_build", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
