package main

// The correctness oracle: every response is recomputed in process from the
// public measurement and detection calls and compared field by field.

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"advhunter/internal/core"
	"advhunter/internal/detect"
	"advhunter/internal/tensor"
	"advhunter/internal/twin"
	"advhunter/internal/uarch/hpc"
)

// autoMargin mirrors the server's default -margin, the auto tier's
// escalation band.
const autoMargin = 0.15

// stack is the in-process model of the served configuration: the exact
// measurer and detector, plus the twin ones under the auto tier. It is built
// from the same cache files and defaults the child process uses.
type stack struct {
	meas   *core.Measurer
	det    *detect.Fitted
	twin   *twin.Measurer // nil unless tier auto
	twinD  *detect.Fitted
	decIdx int // the decision channel (cache-misses) in det.Channels(), -1 if absent
}

// expected is the verdict a response must carry.
type expected struct {
	v    detect.Verdict
	tier string // "" under plain exact serving
}

func (s *stack) adversarial(v detect.Verdict) bool {
	if s.decIdx >= 0 {
		return v.Flags[s.decIdx]
	}
	return v.Fused
}

// verdictFor recomputes one request with its own measurer replicas: under
// the auto tier the twin screens and an uncertain screen escalates to the
// exact engine, as the tier promises.
func (s *stack) verdictFor(m *core.Measurer, tm *twin.Measurer, tier string, x *tensor.Tensor, idx uint64) expected {
	if tier != "auto" {
		return expected{v: s.det.Detect(m.MeasureAt(idx, x))}
	}
	tv := s.twinD.Detect(tm.MeasureAt(idx, x))
	if !s.twinD.Uncertain(tv, s.decIdx, autoMargin) {
		return expected{v: tv, tier: "twin"}
	}
	return expected{v: s.det.Detect(m.MeasureAt(idx, x)), tier: "exact"}
}

// pairKey identifies one distinct request: the image as sent and the noise
// index.
type pairKey struct {
	input int
	nudge uint32
	index uint64
}

func keyOf(r req) pairKey { return pairKey{r.input, r.nudge, r.index} }

// oracle computes the expected verdict of every distinct request in reqs on
// maxConns workers, each with private measurer replicas.
func (s *stack) oracle(tier string, in *inputSet, reqs []req) map[pairKey]expected {
	var distinct []req
	seen := map[pairKey]bool{}
	for _, r := range reqs {
		if k := keyOf(r); !seen[k] {
			seen[k] = true
			distinct = append(distinct, r)
		}
	}
	out := make([]expected, len(distinct))
	var wg sync.WaitGroup
	for w := range maxConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := s.meas.Clone()
			var tm *twin.Measurer
			if s.twin != nil {
				tm = s.twin.Clone()
			}
			for i := w; i < len(distinct); i += maxConns {
				out[i] = s.verdictFor(m, tm, tier, in.tensor(distinct[i]), distinct[i].index)
			}
		}()
	}
	wg.Wait()
	res := make(map[pairKey]expected, len(distinct))
	for i, r := range distinct {
		res[keyOf(r)] = out[i]
	}
	return res
}

// wireResponse holds the response fields the oracle checks.
type wireResponse struct {
	Index          uint64             `json:"index"`
	PredictedClass int                `json:"predicted_class"`
	Adversarial    bool               `json:"adversarial"`
	Tier           string             `json:"tier"`
	Scores         map[string]float64 `json:"scores"`
}

// check compares one response body with its expected verdict: index,
// predicted class, verdict, tier and every channel score bit for bit.
func (s *stack) check(body []byte, idx uint64, want expected) (wireResponse, error) {
	var got wireResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return got, fmt.Errorf("response is not JSON: %w", err)
	}
	v := want.v
	switch {
	case got.Index != idx:
		return got, fmt.Errorf("index %d, sent %d", got.Index, idx)
	case got.PredictedClass != v.PredictedClass:
		return got, fmt.Errorf("predicted_class %d, oracle %d", got.PredictedClass, v.PredictedClass)
	case got.Adversarial != s.adversarial(v):
		return got, fmt.Errorf("adversarial %v, oracle %v", got.Adversarial, s.adversarial(v))
	case got.Tier != want.tier:
		return got, fmt.Errorf("tier %q, oracle %q", got.Tier, want.tier)
	case len(got.Scores) != len(v.Channels):
		return got, fmt.Errorf("%d scores, oracle %d", len(got.Scores), len(v.Channels))
	}
	for i, ch := range v.Channels {
		g, ok := got.Scores[ch]
		if !ok || math.Float64bits(g) != math.Float64bits(v.Scores[i]) {
			return got, fmt.Errorf("score %s = %v, oracle %v", ch, g, v.Scores[i])
		}
	}
	return got, nil
}

// decisionChannel locates the server's default decision event among the
// detector's channels.
func decisionChannel(det *detect.Fitted) int {
	for i, ch := range det.Channels() {
		if ch == hpc.CacheMisses.String() {
			return i
		}
	}
	return -1
}
