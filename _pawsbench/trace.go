package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"paws/internal/obs"
)

// tracer is the traced run's in-memory record: per operation, its latency,
// the time of each layer the benchmark attributed, every HTTP exchange the
// operation made (with the server's own trace of it) and any in-process
// spans. All methods are nil-safe, so untraced runs pay nothing. The record
// is written out when the run ends.
type tracer struct {
	ops []*opRec
	cur *opRec
}

type opRec struct {
	Label string  `json:"label"`
	MS    float64 `json:"ms"`
	// Note carries a per-operation outcome worth splitting by, such as
	// whether a riskmap response was cached.
	Note string `json:"note,omitempty"`
	// Layers is the self time of each attributed layer, in ms; Extra holds
	// side measurements that are not part of the latency (sizes, direct
	// re-timings).
	Layers   map[string]float64 `json:"layers"`
	Extra    map[string]float64 `json:"extra,omitempty"`
	Requests []*reqRec          `json:"requests,omitempty"`
	Spans    []obs.Span         `json:"spans,omitempty"`
	after    []func()
	// capture keeps the HTTP bodies of the operation's exchanges.
	capture bool
}

// reqRec is one HTTP exchange of a traced operation.
type reqRec struct {
	Method    string     `json:"method"`
	Path      string     `json:"path"`
	TraceID   string     `json:"trace_id"`
	ReqBytes  int        `json:"req_bytes"`
	RespBytes int        `json:"resp_bytes"`
	ClientMS  float64    `json:"client_ms"`
	ServerMS  float64    `json:"server_ms"`
	Spans     []obs.Span `json:"server_spans,omitempty"`
	reqBody   []byte
	respBody  []byte
}

func newTracer() *tracer { return &tracer{} }

type tracerKey struct{}

func withTracer(ctx context.Context, t *tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

func tracerFrom(ctx context.Context) *tracer {
	t, _ := ctx.Value(tracerKey{}).(*tracer)
	return t
}

func (t *tracer) beginOp(label string) {
	if t == nil {
		return
	}
	t.cur = &opRec{Label: label, Layers: map[string]float64{}, Extra: map[string]float64{}}
}

// endOp closes the current operation and runs its deferred bookkeeping
// (server trace lookups, codec timings), which stays out of the latency.
func (t *tracer) endOp(ms float64) {
	if t == nil {
		return
	}
	op := t.cur
	op.MS = ms
	for _, f := range op.after {
		f()
	}
	op.after = nil
	t.ops = append(t.ops, op)
	t.cur = nil
}

// add attributes ms to a layer of the current operation.
func (t *tracer) add(layer string, ms float64) {
	if t == nil || t.cur == nil {
		return
	}
	t.cur.Layers[layer] += ms
}

// after defers f until the current operation's latency is recorded.
func (t *tracer) after(f func()) {
	if t == nil || t.cur == nil {
		return
	}
	t.cur.after = append(t.cur.after, f)
}

func (t *tracer) request(r *reqRec) {
	if t == nil || t.cur == nil {
		return
	}
	t.cur.Requests = append(t.cur.Requests, r)
}

// layerMedian is the median over operations that have the layer.
func (t *tracer) layerMedian(layer string) float64 {
	var xs []float64
	for _, op := range t.ops {
		if v, ok := op.Layers[layer]; ok {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

// residual sets each operation's unattributed time: its latency minus the
// self time of every attributed layer, under the layer name residual.
func (t *tracer) residual(residual string, layers ...string) {
	for _, op := range t.ops {
		r := op.MS
		for _, l := range layers {
			r -= op.Layers[l]
		}
		op.Layers[residual] = r
	}
}

// printAttribution prints, per operation label, the median latency and the
// median self time of each layer.
func (t *tracer) printAttribution(workload string) {
	byLabel := map[string][]*opRec{}
	var labels []string
	for _, op := range t.ops {
		key := op.Label
		if op.Note != "" {
			key += " (" + op.Note + ")"
		}
		if _, ok := byLabel[key]; !ok {
			labels = append(labels, key)
		}
		byLabel[key] = append(byLabel[key], op)
	}
	sort.Strings(labels)
	fmt.Printf("attribution (%s): median ms per op, by layer self time\n", workload)
	for _, l := range labels {
		ops := byLabel[l]
		var total []float64
		layerSet := map[string]bool{}
		for _, op := range ops {
			total = append(total, op.MS)
			for name := range op.Layers {
				layerSet[name] = true
			}
		}
		names := make([]string, 0, len(layerSet))
		for n := range layerSet {
			names = append(names, n)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, n := range names {
			var xs []float64
			for _, op := range ops {
				xs = append(xs, op.Layers[n])
			}
			parts = append(parts, fmt.Sprintf("%s=%.2f", n, median(xs)))
		}
		fmt.Printf("  %-28s n=%-4d op=%.2f  %s\n", l, len(ops), median(total), strings.Join(parts, " "))
	}
}

// write stores the traced operations as JSON under .bench_build/out.
func (t *tracer) write(workload string, seed int64) (string, error) {
	dir, err := outDir()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	b, err := json.MarshalIndent(t.ops, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
