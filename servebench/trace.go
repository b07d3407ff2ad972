package main

// The traced run: the first digestSize measured requests replayed serially
// through an in-process copy of the served stack, with spans recorded from
// this file around the handler and around direct calls into each layer's
// public functions. No span lives inside the program.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"advhunter/internal/cluster"
	"advhunter/internal/core"
	"advhunter/internal/data"
	"advhunter/internal/detect"
	"advhunter/internal/serve"
	"advhunter/internal/twin"
	"advhunter/internal/uarch/hpc"
)

// span is one timed interval. Spans of one request share req; parent is the
// id of the enclosing span, -1 for a request's root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Hit    bool          `json:"hit,omitempty"` // truth-cache hit, on measure spans
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.t0) }

// around records one span covering f and returns it.
func (t *tracer) around(name string, parent, req int, f func()) span {
	id := t.begin(name, parent, req)
	f()
	t.end(id)
	return t.spans[id]
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// serveConfig mirrors the flags the child runs with; every other field is
// the flag default.
func (s *stack) serveConfig(w workload, logger *slog.Logger) serve.Config {
	cfg := serve.Config{
		QueueSize:        64,
		MaxBatch:         8,
		BatchWait:        2 * time.Millisecond,
		Timeout:          10 * time.Second,
		DecisionEvent:    hpc.CacheMisses,
		ClassName:        func(c int) string { return data.ClassName("cifar10", c) },
		Logger:           logger,
		TruthCacheSize:   w.truthCache,
		Tier:             w.tier,
		EscalationMargin: autoMargin,
	}
	if w.tier == serve.TierAuto {
		cfg.Twin = s.twin.Clone()
		cfg.TwinDetector = s.twinD
	}
	return cfg
}

// inproc is one in-process copy of the served stack.
type inproc struct {
	handler  http.Handler
	replicas []*serve.Server // the cluster's replicas; nil for a single server
	shutdown func()
}

func (s *stack) build(w workload) *inproc {
	logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	if !w.cluster {
		srv := serve.New(s.meas.Clone(), s.det, s.serveConfig(w, logger))
		return &inproc{handler: srv.Handler(), shutdown: func() { srv.Shutdown(context.Background()) }}
	}
	c := cluster.New(cluster.Config{Replicas: 2, Policy: cluster.PolicyAffinity, Logger: logger},
		func(int) *serve.Server { return serve.New(s.meas.Clone(), s.det, s.serveConfig(w, logger)) })
	return &inproc{handler: c.Handler(), replicas: c.Replicas(), shutdown: func() { c.Shutdown(context.Background()) }}
}

// serveOnce runs one request through h and returns the response body.
func serveOnce(h http.Handler, body []byte) []byte {
	r := httptest.NewRequest(http.MethodPost, "/detect", bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec.Body.Bytes()
}

// traceResult is what the traced run measured.
type traceResult struct {
	metrics map[string]float64
	bodies  [][]byte // the front handler's response per replayed request
}

// tracedRun replays reqs (the first requests of the measured plan) after
// the plan's warm-up, once untraced and once traced, each on a fresh stack.
func (s *stack) tracedRun(w workload, in *inputSet, warm, reqs []req, spanPath string) (*traceResult, error) {
	res := &traceResult{metrics: map[string]float64{}}
	shape := [3]int(in.all[0].x.Shape())

	// Untraced: only the loop's total wall time.
	a := s.build(w)
	for _, r := range warm {
		serveOnce(a.handler, in.bodyBytes(r))
	}
	bodies := make([][]byte, len(reqs))
	for k, r := range reqs {
		bodies[k] = in.bodyBytes(r)
	}
	t0 := time.Now()
	for _, b := range bodies {
		serveOnce(a.handler, b)
	}
	untraced := time.Since(t0)
	a.shutdown()

	// Traced: the probe measurers keep their own truth caches, warmed like
	// the server's, so a probe hits exactly when the handler's lookup does.
	b := s.build(w)
	defer b.shutdown()
	meas := s.meas.Clone()
	var cache, twinCache *core.TruthCache
	if w.truthCache >= 0 {
		cache = core.NewTruthCache(512)
		if w.tier == serve.TierAuto {
			twinCache = core.NewTruthCache(512)
		}
	}
	var tm *twin.Measurer
	if s.twin != nil {
		tm = s.twin.Clone()
	}
	for _, r := range warm {
		serveOnce(b.handler, in.bodyBytes(r))
		x := in.tensor(r)
		if cache == nil {
			continue // nothing to warm; MeasureAt would only cost time
		}
		if w.tier == serve.TierAuto {
			tv := s.twinD.Detect(measurement(tm.MeasureAtCached(twinCache, r.index, x)))
			if s.twinD.Uncertain(tv, s.decIdx, autoMargin) {
				meas.MeasureAtCached(cache, r.index, x)
			}
		} else {
			meas.MeasureAtCached(cache, r.index, x)
		}
	}
	ring := cluster.NewRing(2, 0)
	sp := make([]float64, meas.Engine.NumLeaves())

	tr := &tracer{t0: time.Now()}
	var handlerTotal time.Duration
	per := map[string][]float64{} // metric → per-request samples
	add := func(name string, d time.Duration) { per[name] = append(per[name], float64(d)) }
	for k, r := range reqs {
		body := bodies[k]
		root := tr.begin("request", -1, k)
		// call runs the request through the stack's front handler; its body,
		// error or not, must equal the HTTP run's.
		call := func(name string) span {
			var out []byte
			sp := tr.around(name, root, k, func() { out = serveOnce(b.handler, body) })
			res.bodies = append(res.bodies, out)
			handlerTotal += sp.dur()
			return sp
		}
		var handler span // the serve handler's span, for the unattributed time
		if !w.cluster {
			handler = call("serve.handler")
		}

		var layers time.Duration // layer spans the handler also runs
		var q *serve.Request
		var err error
		layers += tr.around("serve.decode", root, k, func() { q, err = serve.DecodeRequest(body, shape) }).dur()
		if err != nil {
			return nil, fmt.Errorf("traced request %d: decode: %w", k, err)
		}
		x := q.Tensor()
		tr.around("core.fingerprint", root, k, func() { core.Fingerprint(x) })

		if w.cluster {
			var target int
			route := tr.around("cluster.route", root, k, func() {
				rq, err := serve.DecodeRequest(body, shape)
				if err == nil {
					target = ring.Lookup(core.Fingerprint(rq.Tensor()))
				}
			})
			call("cluster.handler")
			// The hop is the router's share of a request both calls serve
			// from the replica's truth cache.
			handler = tr.around("cluster.replica_handler", root, k, func() { serveOnce(b.replicas[target].Handler(), body) })
			warmCall := tr.around("cluster.handler_warm", root, k, func() { serveOnce(b.handler, body) })
			add("cluster.route_us", route.dur())
			add("cluster.hop_us", warmCall.dur()-handler.dur())
			meas.MeasureAtCached(cache, r.index, x) // the replica call hit; so must the probe
		}

		score := func(det *detect.Fitted, m core.Measurement) detect.Verdict {
			var v detect.Verdict
			layers += tr.around("detect.score", root, k, func() { v = det.Detect(m) }).dur()
			return v
		}
		measure := func() core.Measurement {
			var m core.Measurement
			var hit bool
			ms := tr.around("core.measure", root, k, func() { m, hit = meas.MeasureAtCached(cache, r.index, x) })
			tr.spans[ms.ID].Hit = hit
			layers += ms.dur()
			if hit {
				add("core.measure_hit_us", ms.dur())
			}
			return m
		}
		var v detect.Verdict
		tier := ""
		if w.tier == serve.TierAuto {
			var m core.Measurement
			twinSpan := tr.around("twin.measure", root, k, func() { m, _ = tm.MeasureAtCached(twinCache, r.index, x) })
			layers += twinSpan.dur()
			add("twin.measure_us", twinSpan.dur())
			v, tier = score(s.twinD, m), "twin"
			if s.twinD.Uncertain(v, s.decIdx, autoMargin) {
				v, tier = score(s.det, measure()), "exact"
			}
		} else {
			v = score(s.det, measure())
		}
		resp := s.response(r.index, v, tier)
		var enc bytes.Buffer
		layers += tr.around("serve.encode", root, k, func() { json.NewEncoder(&enc).Encode(resp) }).dur()

		infer := tr.around("engine.infer", root, k, func() { meas.Engine.InferConf(x) })
		fwd := tr.around("engine.forward", root, k, func() { meas.Engine.ForwardStats(x, sp) })
		tr.end(root)

		add("serve.unattributed_us", handler.dur()-layers)
		add("engine.infer_ms", infer.dur())
		add("engine.forward_ms", fwd.dur())
	}
	for _, sp := range tr.spans {
		switch sp.Name {
		case "serve.decode":
			add("serve.decode_us", sp.dur())
		case "serve.encode":
			add("serve.encode_us", sp.dur())
		case "core.fingerprint":
			add("core.fingerprint_us", sp.dur())
		}
	}
	// Score time per request: the twin screen plus any escalated exact score.
	scoreByReq := make([]time.Duration, len(reqs))
	for _, sp := range tr.spans {
		if sp.Name == "detect.score" {
			scoreByReq[sp.Req] += sp.dur()
		}
	}
	for _, d := range scoreByReq {
		add("detect.score_us", d)
	}

	for name, xs := range per {
		unit := time.Microsecond
		if name == "engine.infer_ms" || name == "engine.forward_ms" {
			unit = time.Millisecond
		}
		res.metrics[name] = median(xs) / float64(unit)
	}
	// A difference of two medians, not a measured span.
	res.metrics["engine.replay_ms"] = res.metrics["engine.infer_ms"] - res.metrics["engine.forward_ms"]
	res.metrics["bench.trace_overhead_frac"] = (handlerTotal.Seconds() - untraced.Seconds()) / untraced.Seconds()
	if err := tr.write(spanPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

// measurement drops MeasureAtCached's hit flag.
func measurement(m core.Measurement, _ bool) core.Measurement { return m }

// response renders the verdict the way the service does, for timing the
// encoder on a realistic value.
func (s *stack) response(idx uint64, v detect.Verdict, tier string) serve.Response {
	resp := serve.Response{
		Index:          idx,
		PredictedClass: v.PredictedClass,
		ClassName:      data.ClassName("cifar10", v.PredictedClass),
		Backend:        s.det.Kind(),
		Modelled:       v.Modelled,
		Adversarial:    s.adversarial(v),
		Tier:           tier,
		Scores:         make(map[string]float64, len(v.Channels)),
		Flags:          make(map[string]bool, len(v.Channels)),
	}
	for i, ch := range v.Channels {
		resp.Scores[ch] = v.Scores[i]
		resp.Flags[ch] = v.Flags[i]
	}
	return resp
}
