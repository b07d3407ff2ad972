package workload

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// TestBuildReportEmptyOutcomes: a run that completed nothing — a saturated
// sweep point — must produce finite zero rates and encode cleanly as JSON,
// not NaN.
func TestBuildReportEmptyOutcomes(t *testing.T) {
	tr := &Trace{Name: "empty", Seed: 1, Arrival: ArrivalSpec{Kind: Poisson, Rate: 1}}
	rep := buildReport(tr, nil, Snapshot{}, Snapshot{}, &gaugeSamples{}, 0)
	for name, v := range map[string]float64{
		"rate_429":       rep.Rate429,
		"timeout_rate":   rep.TimeoutRate,
		"error_rate":     rep.ErrorRate,
		"throughput_rps": rep.ThroughputRPS,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v != 0 {
			t.Errorf("%s = %g, want 0", name, v)
		}
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("empty report does not marshal: %v", err)
	}
}

// TestSnapshotSum: family sums aggregate across label variants — the shape a
// cluster scrape produces, one series per replica — while staying equal to
// Get for a bare single-server series.
func TestSnapshotSum(t *testing.T) {
	s := Snapshot{
		"advhunter_queue_depth":                            3,
		`advhunter_truth_cache_hits_total{replica="0"}`:    10,
		`advhunter_truth_cache_hits_total{replica="1"}`:    4,
		`advhunter_requests_total{code="429",replica="0"}`: 2,
		`advhunter_requests_total{code="429",replica="1"}`: 5,
		`advhunter_requests_total{code="200",replica="1"}`: 90,
		"advhunter_truth_cache_hits_total_other_family":    99, // prefix but not this family
		`advhunter_queue_depth_peak{replica="0"}`:          7,  // likewise
	}
	if got := s.Sum("advhunter_queue_depth"); got != 3 {
		t.Fatalf("bare-series sum = %g, want 3", got)
	}
	if got := s.Sum("advhunter_truth_cache_hits_total"); got != 14 {
		t.Fatalf("replica sum = %g, want 14", got)
	}
	if got := s.SumMatch("advhunter_requests_total", "code", "429"); got != 7 {
		t.Fatalf("SumMatch 429 = %g, want 7", got)
	}
	if got := s.SumMatch("advhunter_requests_total", "code", "200"); got != 90 {
		t.Fatalf("SumMatch 200 = %g, want 90", got)
	}
	if got := s.SumMatch("advhunter_requests_total", "code", "404"); got != 0 {
		t.Fatalf("SumMatch absent code = %g, want 0", got)
	}
}

// TestBuildReportTierLabel: a run whose 200s carry both twin and exact
// verdicts is an auto-tier run, whichever tier decided more of them; a run
// with one tier keeps that tier's label.
func TestBuildReportTierLabel(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tiers []string
		want  string
	}{
		{"exact-only", []string{"", "", ""}, ""},
		{"twin-only", []string{"twin", "twin"}, "twin"},
		{"auto", []string{"twin", "twin", "twin", "exact"}, "auto"},
		{"auto-mostly-exact", []string{"exact", "exact", "twin"}, "auto"},
	} {
		tr := &Trace{Name: tc.name, Arrival: ArrivalSpec{Kind: Poisson, Rate: 1}}
		var outs []Outcome
		for _, tier := range tc.tiers {
			tr.Events = append(tr.Events, Event{Cohort: "clean"})
			outs = append(outs, Outcome{Status: 200, Tier: tier})
		}
		rep := buildReport(tr, outs, Snapshot{}, Snapshot{}, &gaugeSamples{}, time.Second)
		if rep.Tier != tc.want {
			t.Errorf("%s: tier %q, want %q", tc.name, rep.Tier, tc.want)
		}
	}
}

// TestRenderTwinTruthCache: twin and auto runs fill the twin-tier cache, not
// the exact one, so the report must carry and print the twin hit rate.
func TestRenderTwinTruthCache(t *testing.T) {
	tr := &Trace{Name: "twin", Arrival: ArrivalSpec{Kind: Poisson, Rate: 1}}
	after := Snapshot{
		"advhunter_twin_truth_cache_hits_total":   3,
		"advhunter_twin_truth_cache_misses_total": 1,
	}
	rep := buildReport(tr, nil, Snapshot{}, after, &gaugeSamples{}, time.Second)
	if got := rep.Server.TwinTruthHitRate; got != 0.75 {
		t.Fatalf("twin hit rate %g, want 0.75", got)
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if want := "twin truth-cache hit rate 0.750 (3/4)"; !strings.Contains(buf.String(), want) {
		t.Fatalf("render lacks %q:\n%s", want, buf.String())
	}

	// An exact-only run never touched the twin cache: no twin line.
	buf.Reset()
	buildReport(tr, nil, Snapshot{}, Snapshot{}, &gaugeSamples{}, time.Second).Render(&buf)
	if strings.Contains(buf.String(), "twin truth-cache") {
		t.Fatalf("twin cache line on a run without twin traffic:\n%s", buf.String())
	}
}
