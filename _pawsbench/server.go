package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"paws"
	"paws/internal/obs"
	"paws/internal/serve"
)

// server is an in-process pawsd handler on a loopback listener, with the
// benchmark's single client: one connection, one request in flight.
type server struct {
	h    *serve.Server
	ts   *httptest.Server
	hc   *http.Client
	base string
}

func startServer(svc *paws.Service) *server {
	h := serve.New(svc, serve.Config{})
	ts := httptest.NewServer(h)
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &server{
		h:    h,
		ts:   ts,
		hc:   &http.Client{Transport: &tap{next: tr}},
		base: ts.URL,
	}
}

func (s *server) close() {
	s.hc.CloseIdleConnections()
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.h.Close(ctx) // drains nothing: the benchmark submits no jobs
}

// do sends one JSON request and returns the raw response body; a non-2xx
// status is an error carrying the body.
func (s *server) do(ctx context.Context, method, path string, in any) ([]byte, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}

// traces looks up the server's own record of each traced request by the
// trace ID the tap sent with it (the server adopts inbound IDs).
func (s *server) traces(ctx context.Context, reqs []*reqRec) error {
	raw, err := s.do(ctx, http.MethodGet, "/tracez", nil)
	if err != nil {
		return err
	}
	var tz obs.TracezResponse
	if err := json.Unmarshal(raw, &tz); err != nil {
		return err
	}
	byID := map[string]obs.TraceRecord{}
	for _, tr := range tz.Traces {
		byID[tr.TraceID] = tr
	}
	for _, r := range reqs {
		tr, ok := byID[r.TraceID]
		if !ok {
			return fmt.Errorf("trace %s of %s %s not in /tracez", r.TraceID, r.Method, r.Path)
		}
		r.ServerMS = tr.DurationMS
		r.Spans = tr.Spans
	}
	return nil
}

// afterTraces schedules the /tracez lookup of the current operation's
// requests for when its latency has been recorded.
func (s *server) afterTraces(t *tracer) {
	if t == nil {
		return
	}
	op := t.cur
	t.after(func() {
		if err := s.traces(context.Background(), op.Requests); err != nil {
			fmt.Println("trace lookup:", err)
		}
	})
}

// counters reads the named counters from /metricsz.
func (s *server) counters(ctx context.Context, names ...string) (map[string]float64, error) {
	raw, err := s.do(ctx, http.MethodGet, "/metricsz", nil)
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && want[f[0]] {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, err
			}
			out[f[0]] = v
		}
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("/metricsz has no %s", n)
		}
	}
	return out, nil
}

// tap is the client transport hook of the traced run: for requests made
// under an operation of a tracer it sends a fresh trace ID, and records
// the exchange's sizes and client-side time, and its bodies when the
// operation asks for them. Untraced requests pass straight through.
type tap struct{ next http.RoundTripper }

func (tp *tap) RoundTrip(req *http.Request) (*http.Response, error) {
	t := tracerFrom(req.Context())
	if t == nil || t.cur == nil {
		return tp.next.RoundTrip(req)
	}
	rec := &reqRec{Method: req.Method, Path: req.URL.Path, TraceID: obs.MintID()}
	if req.Body != nil {
		b, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		req.Body.Close()
		if t.cur.capture {
			rec.reqBody = b
		}
		rec.ReqBytes = len(b)
		req.Body = io.NopCloser(bytes.NewReader(b))
	}
	req = req.Clone(req.Context())
	req.Header.Set(obs.TraceHeader, rec.TraceID)
	start := time.Now()
	resp, err := tp.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	t.request(rec)
	resp.Body = &tapBody{rc: resp.Body, rec: rec, start: start, capture: t.cur.capture}
	return resp, nil
}

// tapBody counts (and, when asked, captures) a response body and stamps
// the exchange's client time when the body has been read to its end.
type tapBody struct {
	rc      io.ReadCloser
	rec     *reqRec
	start   time.Time
	capture bool
	buf     bytes.Buffer
	n       int
	done    bool
}

func (b *tapBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += n
	if b.capture {
		b.buf.Write(p[:n])
	}
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *tapBody) Close() error {
	b.finish()
	return b.rc.Close()
}

func (b *tapBody) finish() {
	if b.done {
		return
	}
	b.done = true
	b.rec.ClientMS = msSince(b.start)
	b.rec.respBody = b.buf.Bytes()
	b.rec.RespBytes = b.n
}
