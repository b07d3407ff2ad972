package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"advhunter/internal/tensor"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	cases := []struct {
		n     int
		q     float64
		want  float64
		wantQ float64
	}{
		{n: 2000, q: 0.99, want: 1980, wantQ: 0.99}, // 20 beyond
		{n: 1000, q: 0.99, want: 990, wantQ: 0.99},  // exactly 10 beyond
		{n: 999, q: 0.99, want: 989, wantQ: 989.0 / 999},
		{n: 500, q: 0.99, want: 490, wantQ: 0.98},
		{n: 11, q: 0.99, want: 1, wantQ: 1.0 / 11},
		{n: 10, q: 0.99, want: 5, wantQ: 0.5}, // nothing qualifies: the median
	}
	for _, c := range cases {
		got, q := tailPercentile(seq(c.n), c.q)
		if got != c.want || math.Abs(q-c.wantQ) > 1e-12 {
			t.Errorf("n=%d q=%g: got %g at q=%g, want %g at q=%g", c.n, c.q, got, q, c.want, c.wantQ)
		}
		if c.n > minBeyond {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > got {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond the reported value", c.n, beyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for q, want := range map[float64]float64{0.5: 50, 0.01: 1, 0.99: 99, 1: 100, 0: 1} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(%g) = %g, want %g", q, got, want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

const metricsBefore = `# HELP advhunter_stage_duration_seconds Detection-pipeline stage durations.
# TYPE advhunter_stage_duration_seconds histogram
advhunter_stage_duration_seconds_bucket{stage="decode",le="0.001"} 10
advhunter_stage_duration_seconds_bucket{stage="decode",le="0.01"} 20
advhunter_stage_duration_seconds_bucket{stage="decode",le="+Inf"} 20
advhunter_stage_duration_seconds_sum{stage="decode"} 0.05
advhunter_stage_duration_seconds_count{stage="decode"} 20
advhunter_stage_duration_seconds_bucket{stage="queue",le="0.001"} 0
advhunter_stage_duration_seconds_bucket{stage="queue",le="0.01"} 5
advhunter_stage_duration_seconds_bucket{stage="queue",le="+Inf"} 5
advhunter_stage_duration_seconds_sum{stage="queue"} 0.02
advhunter_stage_duration_seconds_count{stage="queue"} 5
advhunter_cluster_routed_total{policy="affinity",replica="0"} 4
advhunter_cluster_routed_total{policy="affinity",replica="1"} 6
advhunter_build_info{version="v1 \"x\"",goversion="go1"} 1
`

// metricsAfter adds 100 decode observations: 40 at or below 1 ms, 50 in
// (1 ms, 10 ms] and 10 above, across two replicas.
const metricsAfter = `advhunter_stage_duration_seconds_bucket{stage="decode",le="0.001",replica="0"} 30
advhunter_stage_duration_seconds_bucket{stage="decode",le="0.01",replica="0"} 50
advhunter_stage_duration_seconds_bucket{stage="decode",le="+Inf",replica="0"} 55
advhunter_stage_duration_seconds_sum{stage="decode",replica="0"} 0.2
advhunter_stage_duration_seconds_count{stage="decode",replica="0"} 55
advhunter_stage_duration_seconds_bucket{stage="decode",le="0.001",replica="1"} 20
advhunter_stage_duration_seconds_bucket{stage="decode",le="0.01",replica="1"} 60
advhunter_stage_duration_seconds_bucket{stage="decode",le="+Inf",replica="1"} 65
advhunter_stage_duration_seconds_sum{stage="decode",replica="1"} 0.35
advhunter_stage_duration_seconds_count{stage="decode",replica="1"} 65
advhunter_cluster_routed_total{policy="affinity",replica="0"} 54
advhunter_cluster_routed_total{policy="affinity",replica="1"} 106
`

func TestHistogramDeltaAndQuantile(t *testing.T) {
	before, err := parseProm(metricsBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(metricsAfter)
	if err != nil {
		t.Fatal(err)
	}
	if got := before.sum("advhunter_build_info", map[string]string{"version": `v1 "x"`}); got != 1 {
		t.Errorf("escaped label lookup = %g, want 1", got)
	}
	want := map[string]string{"stage": "decode"}
	d := after.histogram("advhunter_stage_duration_seconds", want).delta(before.histogram("advhunter_stage_duration_seconds", want))
	if d.count != 100 || math.Abs(d.sum-0.5) > 1e-12 {
		t.Fatalf("delta count %g sum %g, want 100 and 0.5", d.count, d.sum)
	}
	if got := d.mean(); math.Abs(got-0.005) > 1e-12 {
		t.Errorf("mean = %g, want 0.005", got)
	}
	cum := []float64{40, 90, 100}
	for i, b := range d.buckets {
		if b.count != cum[i] {
			t.Errorf("bucket %g: %g, want %g", b.le, b.count, cum[i])
		}
	}
	cases := map[float64]float64{
		0.2:  0.0005,                         // inside the first bucket, from 0
		0.4:  0.001,                          // its upper edge
		0.5:  0.001 + 0.009*(50-40)/(90-40),  // interpolated in (1 ms, 10 ms]
		0.9:  0.01,                           // the last finite edge
		0.99: 0.01,                           // in +Inf: the highest finite bound
		0.65: 0.001 + 0.009*(65-40)/(90-40.), // halfway
	}
	for q, want := range cases {
		if got := d.quantile(q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
	if got := (hist{}).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}

	routed := after.byLabel("advhunter_cluster_routed_total", "replica")
	prev := before.byLabel("advhunter_cluster_routed_total", "replica")
	if routed["0"]-prev["0"] != 50 || routed["1"]-prev["1"] != 100 {
		t.Errorf("routed deltas %v − %v", routed, prev)
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		`m{a="1"`,
		`m{a=1} 2`,
		`m 1x`,
		`{a="1"} 2`,
		`m{a="unterminated} 1`,
	} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parseProm(%q) accepted", bad)
		}
	}
}

const heapPage = `heap profile: 3: 4096 [10: 8192] @ heap/1048576
1: 4096 [1: 4096] @ 0x1
#	0x1	main.main+0x1

# runtime.MemStats
# Alloc = 1234
# TotalAlloc = 987654321
# Sys = 5555
# Lookups = 0
# Mallocs = 424242
# Frees = 400000
# NumGC = 12
`

func TestParseHeapDebug(t *testing.T) {
	m, err := parseHeapDebug(heapPage)
	if err != nil {
		t.Fatal(err)
	}
	if m.totalAlloc != 987654321 || m.mallocs != 424242 {
		t.Errorf("got %+v", m)
	}
	if _, err := parseHeapDebug("heap profile: 0: 0 [0: 0] @ heap/1\n"); err == nil {
		t.Error("a page without MemStats was accepted")
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name holds a space and a parenthesis; utime=250, stime=50.
	line := "4242 (adv hunter) x) S 1 4242 4242 0 -1 4194560 1000 0 0 0 250 50 0 0 20 0 8 0 12345 1000000 2000 18446744073709551615\n"
	got, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3.0 {
		t.Errorf("cpu = %g s, want 3", got)
	}
	if _, err := parseProcStat("4242 (x) S 1 2"); err == nil {
		t.Error("a truncated stat line was accepted")
	}
	hwm, err := parseVmHWM("Name:\tadvhunter\nVmPeak:\t  900 kB\nVmHWM:\t  113152 kB\nVmRSS:\t 100 kB\n")
	if err != nil {
		t.Fatal(err)
	}
	if hwm != 113152*1024 {
		t.Errorf("VmHWM = %g, want %d", hwm, 113152*1024)
	}
}

// testInputs is a small input set: clean images plus a few of each
// adversarial pool, shaped like the served model's inputs.
func testInputs(t *testing.T) *inputSet {
	t.Helper()
	s := &inputSet{pools: map[string][]int{}}
	for _, pool := range []struct {
		cohort string
		n      int
	}{{cohortClean, 30}, {cohortFGSM, 5}, {cohortPGD, 4}} {
		for i := range pool.n {
			d := make([]float64, 3*32*32)
			for j := range d {
				d[j] = float64((i*7+j+len(pool.cohort))%97) / 97
			}
			if err := s.add(pool.cohort, tensor.FromSlice(d, 3, 32, 32)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

func TestBodyCarriesTheSentImage(t *testing.T) {
	in := testInputs(t)
	for _, r := range []req{{input: 3, index: 17}, {input: 31, index: 1 << 40, nudge: 9}} {
		var got struct {
			Shape []int     `json:"shape"`
			Data  []float64 `json:"data"`
			Index uint64    `json:"index"`
		}
		if err := json.Unmarshal(in.bodyBytes(r), &got); err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		x := in.tensor(r)
		if got.Index != r.index || len(got.Data) != len(x.Data()) {
			t.Fatalf("%+v: index %d, %d values", r, got.Index, len(got.Data))
		}
		for j, v := range x.Data() {
			if math.Float64bits(got.Data[j]) != math.Float64bits(v) {
				t.Fatalf("%+v: value %d is %v, tensor has %v", r, j, got.Data[j], v)
			}
		}
		orig := in.all[r.input].x.Data()[0]
		if moved := x.Data()[0] != orig; moved != (r.nudge > 0) {
			t.Errorf("%+v: first value moved=%v", r, moved)
		}
	}
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	in := testInputs(t)
	for _, w := range workloads {
		a, b := makePlan(w, 7, 2, in), makePlan(w, 7, 2, in)
		for _, pair := range [][2][]req{{a.warm, b.warm}, {a.measure, b.measure}, {a.quality, b.quality}} {
			if len(pair[0]) != len(pair[1]) || len(pair[0]) == 0 {
				t.Fatalf("%s: plan lengths %d and %d", w.name, len(pair[0]), len(pair[1]))
			}
			for k := range pair[0] {
				x, y := pair[0][k], pair[1][k]
				if x != y {
					t.Fatalf("%s: request %d differs: %+v vs %+v", w.name, k, x, y)
				}
				if !bytes.Equal(in.bodyBytes(x), in.bodyBytes(y)) {
					t.Fatalf("%s: body %d differs", w.name, k)
				}
			}
		}
		c := makePlan(w, 8, 2, in)
		same := 0
		for k := range min(len(a.measure), len(c.measure)) {
			if a.measure[k] == c.measure[k] {
				same++
			}
		}
		if same == min(len(a.measure), len(c.measure)) {
			t.Errorf("%s: seeds 7 and 8 gave the same plan", w.name)
		}
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	in := testInputs(t)
	w, err := lookupWorkload("auto-open")
	if err != nil {
		t.Fatal(err)
	}
	p := makePlan(w, 3, 20, in)
	if n := len(p.measure); n != int(w.rate*20) {
		t.Fatalf("%d arrivals in 20 s, want rate × seconds = %g", n, w.rate*20)
	}
	// Sorted, inside the horizon, and spread like a Poisson process: about
	// half the arrivals in each half of the horizon.
	var firstHalf int
	for k, r := range p.measure {
		if k > 0 && r.due < p.measure[k-1].due {
			t.Fatalf("schedule goes back in time at %d", k)
		}
		if r.due < 0 || r.due >= 20*time.Second {
			t.Fatalf("arrival %d at %v is outside the horizon", k, r.due)
		}
		if r.due < 10*time.Second {
			firstHalf++
		}
	}
	if n := float64(len(p.measure)); math.Abs(float64(firstHalf)-n/2) > 4*math.Sqrt(n/4) {
		t.Errorf("%d of %g arrivals in the first half", firstHalf, n)
	}
	// The request stream does not depend on the horizon, so the digest of
	// the first requests is the same for any --seconds.
	q := makePlan(w, 3, 30, in)
	for k := range p.measure {
		if p.measure[k].input != q.measure[k].input || p.measure[k].index != q.measure[k].index {
			t.Fatalf("request %d depends on the horizon", k)
		}
	}
}

func TestCohortsCoverTheirPools(t *testing.T) {
	in := testInputs(t)
	w, err := lookupWorkload("exact-miss")
	if err != nil {
		t.Fatal(err)
	}
	p := makePlan(w, 11, 1, in)
	// 300 requests in blocks of 10 hold 180 clean (6 full passes over 30),
	// 60 FGSM and 60 PGD.
	count := map[int]int{}
	byCohort := map[string]int{}
	for _, r := range p.measure[:300] {
		count[r.input]++
		byCohort[in.all[r.input].cohort]++
	}
	if byCohort[cohortClean] != 180 || byCohort[cohortFGSM] != 60 || byCohort[cohortPGD] != 60 {
		t.Errorf("cohort counts %v", byCohort)
	}
	for _, i := range in.pools[cohortClean] {
		if count[i] != 6 {
			t.Errorf("clean input %d sent %d times, want 6", i, count[i])
		}
	}
	if len(p.quality) != len(in.all) {
		t.Errorf("quality pass has %d requests for %d inputs", len(p.quality), len(in.all))
	}
	hot, _ := lookupWorkload("hot-repeat")
	hp := makePlan(hot, 11, 1, in)
	inHot := map[int]bool{}
	for _, h := range hp.hot {
		inHot[h] = true
	}
	for k, r := range hp.measure {
		if !inHot[r.input] {
			t.Fatalf("hot-repeat request %d is outside the hot set", k)
		}
	}
	warmed := map[int]bool{}
	for _, r := range hp.warm {
		warmed[r.input] = true
	}
	if len(hp.warm) != hotSize || len(warmed) != hotSize {
		t.Errorf("hot-repeat warm-up sends %d requests over %d inputs, want each of %d hot inputs once", len(hp.warm), len(warmed), hotSize)
	}
	for _, h := range hp.hot {
		if !warmed[h] {
			t.Errorf("hot input %d is not warmed", h)
		}
	}

	// auto-open warms every pool image, and about half of its measured
	// requests carry a nudge no other request shares.
	auto, _ := lookupWorkload("auto-open")
	ap := makePlan(auto, 11, 10, in)
	if len(ap.warm) != len(in.all) {
		t.Errorf("auto-open warm-up sends %d requests for %d images", len(ap.warm), len(in.all))
	}
	nudges := map[uint32]bool{}
	for _, r := range ap.measure {
		if r.nudge == 0 {
			continue
		}
		if nudges[r.nudge] {
			t.Fatalf("nudge %d is used twice", r.nudge)
		}
		nudges[r.nudge] = true
	}
	if f, n := float64(len(nudges)), float64(len(ap.measure)); math.Abs(f-n/2) > 4*math.Sqrt(n/4) {
		t.Errorf("%g of %g auto-open requests are fresh, want about half", f, n)
	}
	for _, r := range p.measure {
		if r.nudge != 0 {
			t.Fatal("exact-miss sends a fresh request")
		}
	}
}
