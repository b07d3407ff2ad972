package main

// The run phases and the metrics derived from them.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// phases is everything one run observed from outside the server.
type phases struct {
	warm, measure, quality []outcome
	span                   time.Duration   // the measured phase's planned length
	wall                   time.Duration   // measured phase, first send to last reply
	lag                    []time.Duration // open loop: how late each request left the generator
	before, after          snapshot        // around the measured phase
	hwm                    float64         // peak resident set after the measured phase, bytes
	notes                  []string        // report lines printed before the result
}

// drivePhases sends the warm-up, the measured phase (scraped before and
// after) and, when quality is set, the flag-rate pass.
func drivePhases(ctx context.Context, c *child, w workload, in *inputSet, p plan, seconds int, quality bool) (*phases, error) {
	d := newSender(c.base, in)
	defer d.close()
	ph := &phases{span: time.Duration(seconds) * time.Second}
	ph.warm, _ = d.closed(ctx, time.Now(), p.warm, maxConns, 0)
	var err error
	if ph.before, err = c.snapshot(ctx, !w.cluster); err != nil {
		return nil, fmt.Errorf("scrape before: %w", err)
	}
	start := time.Now()
	if w.open {
		ph.measure, ph.lag, ph.wall = d.open(ctx, start, p.measure)
	} else {
		ph.measure, ph.wall = d.closed(ctx, start, p.measure, w.clients, ph.span)
	}
	if ph.after, err = c.snapshot(ctx, !w.cluster); err != nil {
		return nil, fmt.Errorf("scrape after: %w", err)
	}
	if ph.hwm, err = procHWM(c.pid()); err != nil {
		return nil, err
	}
	if quality {
		ph.quality, _ = d.closed(ctx, time.Now(), p.quality, maxConns, 0)
	}
	return ph, nil
}

// segments is how many equal slices of the measured phase the latency
// percentiles are computed over. Each reported percentile is the lowest of
// the slices' values: on a shared host, interference only ever adds latency,
// and it comes in bursts, so the quietest slice is the steadiest estimate of
// what the program itself costs. A change that slows the program slows
// every slice.
const segments = 5

// split returns, per equal slice of the planned phase, the sorted client
// latencies in ms of the 200s completed in it; the last slice also takes the
// replies that arrive after the plan ends.
func (ph *phases) split(open bool) [][]float64 {
	segs := make([][]float64, segments)
	for _, o := range ph.measure {
		if !o.ok() {
			continue
		}
		i := min(int(o.done*segments/ph.span), segments-1)
		segs[i] = append(segs[i], float64(o.latency(open))/float64(time.Millisecond))
	}
	for _, s := range segs {
		sort.Float64s(s)
	}
	return segs
}

// okLatencies returns the client latencies, in ms and sorted, of the
// measured requests answered 200.
func (ph *phases) okLatencies(open bool) []float64 {
	var xs []float64
	for _, o := range ph.measure {
		if o.ok() {
			xs = append(xs, float64(o.latency(open))/float64(time.Millisecond))
		}
	}
	sort.Float64s(xs)
	return xs
}

// endToEnd computes the user-visible metrics except success_frac, which
// needs the checked failure count. quality holds the parsed flag-rate pass.
func endToEnd(w workload, ph *phases, setups []float64, quality []wireResponse, in *inputSet) map[string]metric {
	var p50, p99, qs []float64
	for _, lat := range ph.split(w.open) {
		v, q := tailPercentile(lat, 0.99)
		p99, qs = append(p99, v), append(qs, q)
		p50 = append(p50, percentile(lat, 0.5))
	}
	all := ph.okLatencies(w.open)
	n := float64(len(all))
	allP99, allQ := tailPercentile(all, 0.99)
	ph.notes = append(ph.notes,
		fmt.Sprintf("latency samples %d in %d segments; latency_p99_ms is the lowest of the segments' p%.4g (at least %d samples beyond)",
			len(all), segments, 100*median(qs), minBeyond),
		fmt.Sprintf("segment median: p50 %.4g ms, p99 %.4g ms", median(p50), median(p99)),
		fmt.Sprintf("whole phase: p50 %.4g ms, p%.4g %.4g ms; setup boots %v s", percentile(all, 0.5), 100*allQ, allP99, setups))

	var flagged, total [2]float64 // [clean, adversarial]
	for i, o := range ph.quality {
		a := 0
		if in.all[o.input].cohort != cohortClean {
			a = 1
		}
		total[a]++
		if quality[i].Adversarial {
			flagged[a]++
		}
	}
	return map[string]metric{
		"setup_s":         {median(setups), "s"},
		"throughput_rps":  {n / ph.wall.Seconds(), "1/s"},
		"latency_p50_ms":  {slices.Min(p50), "ms"},
		"latency_p99_ms":  {slices.Min(p99), "ms"},
		"cpu_ms_per_req":  {1000 * (ph.after.cpu - ph.before.cpu) / n, "ms"},
		"rss_peak_mb":     {ph.hwm / (1 << 20), "MiB"},
		"flag_rate_adv":   {ratio(flagged[1], total[1]), "frac"},
		"flag_rate_clean": {ratio(flagged[0], total[0]), "frac"},
	}
}

// perLayer lists every per-layer metric and its unit. A layer the workload
// does not run reports 0: twin.* outside auto-open, cluster.* outside
// cluster-affinity, and the allocation counts on cluster-affinity, whose
// `advhunter cluster` has no -pprof flag.
var perLayer = []struct{ name, unit string }{
	{"serve.server_p50_ms", "ms"},
	{"serve.server_p99_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.decode_ms", "ms"},
	{"serve.decode_us", "us"},
	{"serve.queue_ms", "ms"},
	{"serve.batch_size_mean", "count"},
	{"serve.fused_batch_frac", "frac"},
	{"serve.verdict_ms", "ms"},
	{"serve.encode_us", "us"},
	{"serve.alloc_kb_per_req", "KiB"},
	{"serve.mallocs_per_req", "count"},
	{"serve.escalation_frac", "frac"},
	{"serve.unattributed_us", "us"},
	{"core.truth_hit_frac", "frac"},
	{"core.measure_ms", "ms"},
	{"core.measure_hit_us", "us"},
	{"core.fingerprint_us", "us"},
	{"engine.infer_ms", "ms"},
	{"engine.forward_ms", "ms"},
	{"engine.replay_ms", "ms"},
	{"engine.infer_loaded_ms", "ms"},
	{"twin.measure_ms", "ms"},
	{"twin.measure_us", "us"},
	{"twin.truth_hit_frac", "frac"},
	{"detect.score_ms", "ms"},
	{"detect.score_us", "us"},
	{"cluster.route_us", "us"},
	{"cluster.hop_us", "us"},
	{"cluster.load_skew", "ratio"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.trace_overhead_frac", "frac"},
}

// layerMetrics combines the /metrics and process-stat deltas of the
// measured phase with the traced run's span medians.
func layerMetrics(w workload, ph *phases, traced map[string]float64) map[string]metric {
	hd := func(name string, want map[string]string) hist {
		return ph.after.metrics.histogram(name, want).delta(ph.before.metrics.histogram(name, want))
	}
	cd := func(name string) float64 {
		return ph.after.metrics.sum(name, nil) - ph.before.metrics.sum(name, nil)
	}
	stageMs := func(stage string) float64 {
		return 1000 * hd("advhunter_stage_duration_seconds", map[string]string{"stage": stage}).mean()
	}
	hitFrac := func(prefix string) float64 {
		hits, misses := cd(prefix+"_hits_total"), cd(prefix+"_misses_total")
		return ratio(hits, hits+misses)
	}

	v := map[string]float64{}
	for k, x := range traced {
		v[k] = x
	}
	req := hd("advhunter_request_duration_seconds", nil)
	v["serve.server_p50_ms"] = 1000 * req.quantile(0.5)
	v["serve.server_p99_ms"] = 1000 * req.quantile(0.99)
	var fromSend []float64
	for _, o := range ph.measure {
		if o.ok() {
			fromSend = append(fromSend, float64(o.done-o.sent)/float64(time.Millisecond))
		}
	}
	v["serve.transport_ms"] = mean(fromSend) - 1000*req.mean()
	v["serve.decode_ms"] = stageMs("decode")
	v["serve.queue_ms"] = stageMs("queue")
	v["serve.verdict_ms"] = stageMs("verdict")
	batches := hd("advhunter_batch_size", nil)
	v["serve.batch_size_mean"] = batches.mean()
	v["serve.fused_batch_frac"] = ratio(cd("advhunter_fused_batches_total"), batches.count)
	if ph.before.hasMem {
		n := float64(len(fromSend))
		v["serve.alloc_kb_per_req"] = (ph.after.mem.totalAlloc - ph.before.mem.totalAlloc) / 1024 / n
		v["serve.mallocs_per_req"] = (ph.after.mem.mallocs - ph.before.mem.mallocs) / n
	}
	v["serve.escalation_frac"] = ratio(cd("advhunter_tier_escalations_total"), cd("advhunter_tier_screened_total"))
	v["core.truth_hit_frac"] = hitFrac("advhunter_truth_cache")
	v["core.measure_ms"] = stageMs("measure")
	v["engine.infer_loaded_ms"] = 1000 * hd("advhunter_inference_duration_seconds", nil).mean()
	v["twin.measure_ms"] = stageMs("twin-measure")
	v["twin.truth_hit_frac"] = hitFrac("advhunter_twin_truth_cache")
	score := hd("advhunter_stage_duration_seconds", map[string]string{"stage": "score"})
	twinScore := hd("advhunter_stage_duration_seconds", map[string]string{"stage": "twin-score"})
	v["detect.score_ms"] = 1000 * ratio(score.sum+twinScore.sum, math.Max(score.count, twinScore.count))
	if w.cluster {
		routed := ph.after.metrics.byLabel("advhunter_cluster_routed_total", "replica")
		prev := ph.before.metrics.byLabel("advhunter_cluster_routed_total", "replica")
		lo, hi := math.Inf(1), 0.0
		for r, n := range routed {
			d := n - prev[r]
			lo, hi = math.Min(lo, d), math.Max(hi, d)
		}
		v["cluster.load_skew"] = ratio(hi, lo)
	}
	if w.open {
		lag := make([]float64, len(ph.lag))
		for i, d := range ph.lag {
			lag[i] = float64(d) / float64(time.Millisecond)
		}
		sort.Float64s(lag)
		v["bench.gen_lag_p99_ms"], _ = tailPercentile(lag, 0.99)
	}

	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	return out
}
