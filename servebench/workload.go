package main

// The four traffic mixes and the deterministic request plans built from the
// workload seed. Nothing here imports the program's own load generator: a
// later change to it cannot change what this benchmark sends.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"time"

	"advhunter/internal/experiments"
	"advhunter/internal/tensor"
)

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	// args are the advhunter subcommand and flags (an address and -pprof are
	// added by the launcher).
	args []string
	// tier and truthCache mirror the server flags for the oracle and the
	// traced in-process stack; truthCache follows serve.Config (0 = default
	// size, negative = disabled).
	tier       string
	truthCache int
	cluster    bool
	// open selects an open loop at rate requests per second; otherwise
	// clients closed-loop clients each wait for their previous reply.
	open    bool
	rate    float64
	clients int
	cohorts []cohortWeight
	// fresh is the share of measured requests sent as a fresh near-copy of
	// their image (one value moved by a few ulps), which no truth cache
	// holds. It keeps a workload whose pools fit in the caches from
	// drifting to all hits while it runs.
	fresh float64
}

type cohortWeight struct {
	cohort string
	weight int
}

// The cohorts a workload draws from: clean test images, targeted ε=0.5 FGSM
// and PGD examples from the committed attack caches, and a repeat cohort
// cycling hotSize clean images, the near-identical re-queries of a
// query-based black-box attacker.
const (
	cohortClean  = "clean"
	cohortFGSM   = "fgsm"
	cohortPGD    = "pgd"
	cohortRepeat = "repeat"
	hotSize      = 8
)

// maxConns is the benchmark's connection cap: nproc on the 2-CPU host the
// benchmark was sized on, so client and server share the same two cores.
const maxConns = 2

var workloads = []workload{
	{
		// Every request pays a full simulated inference: the engine workload.
		name: "exact-miss", args: []string{"serve", "-tier", "exact", "-truth-cache", "0"},
		tier: "exact", truthCache: -1, clients: maxConns,
		cohorts: []cohortWeight{{cohortClean, 6}, {cohortFGSM, 2}, {cohortPGD, 2}},
	},
	{
		// After warm-up every request hits the truth cache, so the request
		// path (body read, decode, admission, linger, encode) carries the load.
		name: "hot-repeat", args: []string{"serve", "-tier", "exact"},
		tier: "exact", clients: maxConns,
		cohorts: []cohortWeight{{cohortRepeat, 1}},
	},
	{
		// Independent users on a Poisson schedule through the twin screen with
		// escalation to the exact engine: catches queueing and tail changes.
		name: "auto-open", args: []string{"serve", "-tier", "auto"},
		tier: "auto", open: true, rate: 100, fresh: 0.5,
		cohorts: []cohortWeight{{cohortClean, 6}, {cohortFGSM, 2}, {cohortPGD, 2}},
	},
	{
		// The only path through the cluster router, which decodes each body
		// to fingerprint it before the replica decodes it again.
		name: "cluster-affinity", args: []string{"cluster", "-replicas", "2", "-policy", "affinity", "-tier", "exact"},
		tier: "exact", cluster: true, clients: maxConns,
		cohorts: []cohortWeight{{cohortClean, 1}, {cohortRepeat, 1}},
	},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// input is one distinct image the benchmark can send.
type input struct {
	cohort string // the pool it came from: clean, fgsm or pgd
	x      *tensor.Tensor
	// prefix is the JSON body up to the index field; a request appends
	// `,"index":N}` so each distinct image is encoded once.
	prefix []byte
	// first0 and first1 delimit the first data value's text in prefix, the
	// value a fresh request replaces.
	first0, first1 int
}

// wireRequest is the JSON body clients send today. It is declared here, not
// taken from the server package, so the benchmark's bytes cannot change when
// the server's request type does.
type wireRequest struct {
	Shape []int     `json:"shape"`
	Data  []float64 `json:"data"`
}

// inputSet holds every input the plans index into, grouped by pool.
type inputSet struct {
	all   []input
	pools map[string][]int // cohort pool → indices into all
}

// loadInputs gathers the clean test split and the targeted ε=0.5 FGSM and
// PGD examples (crafted from 60 sources; read from the committed cache).
func loadInputs(env *experiments.Env) (*inputSet, error) {
	s := &inputSet{pools: map[string][]int{}}
	for _, smp := range env.DS.Test {
		if err := s.add(cohortClean, smp.X); err != nil {
			return nil, err
		}
	}
	for _, kind := range []string{cohortFGSM, cohortPGD} {
		pool, err := env.CraftSamples(experiments.AttackSpec{Kind: kind, Eps: 0.5, Targeted: true}, 60)
		if err != nil {
			return nil, fmt.Errorf("loading %s examples: %w", kind, err)
		}
		if len(pool) == 0 {
			return nil, fmt.Errorf("%s pool is empty", kind)
		}
		for _, smp := range pool {
			if err := s.add(kind, smp.X); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// add encodes one image into cohort's pool.
func (s *inputSet) add(cohort string, x *tensor.Tensor) error {
	b, err := json.Marshal(wireRequest{Shape: x.Shape(), Data: x.Data()})
	if err != nil {
		return fmt.Errorf("encoding %s input: %w", cohort, err)
	}
	prefix := b[:len(b)-1]
	const data = `"data":[`
	first0 := bytes.Index(prefix, []byte(data)) + len(data)
	first1 := first0 + bytes.IndexByte(prefix[first0:], ',')
	if first0 < len(data) || first1 < first0 {
		return fmt.Errorf("encoding %s input: fewer than two data values", cohort)
	}
	s.pools[cohort] = append(s.pools[cohort], len(s.all))
	s.all = append(s.all, input{cohort: cohort, x: x, prefix: prefix, first0: first0, first1: first1})
	return nil
}

// nudgeStep is how far a fresh request moves its image's first value, per
// unit of its nudge: a few ulps of a pixel in [0, 1], enough for a distinct
// fingerprint and well inside the server's range check.
const nudgeStep = 0x1p-40

// firstValue is the image's first value as request r sends it.
func (s *inputSet) firstValue(r req) float64 {
	return s.all[r.input].x.Data()[0] + float64(r.nudge)*nudgeStep
}

// body returns request r's JSON body in pieces that share the input's
// encoded prefix: the index is appended, and a fresh request's first value
// is spliced in.
func (s *inputSet) body(r req) [][]byte {
	in := s.all[r.input]
	suffix := strconv.AppendUint([]byte(`,"index":`), r.index, 10)
	suffix = append(suffix, '}')
	if r.nudge == 0 {
		return [][]byte{in.prefix, suffix}
	}
	v := strconv.AppendFloat(nil, s.firstValue(r), 'g', -1, 64)
	return [][]byte{in.prefix[:in.first0], v, in.prefix[in.first1:], suffix}
}

// bodyBytes is request r's body in one slice.
func (s *inputSet) bodyBytes(r req) []byte { return bytes.Join(s.body(r), nil) }

// tensor is the image request r sends.
func (s *inputSet) tensor(r req) *tensor.Tensor {
	x := s.all[r.input].x
	if r.nudge == 0 {
		return x
	}
	x = x.Clone()
	x.Data()[0] = s.firstValue(r)
	return x
}

// req is one planned request.
type req struct {
	input int           // index into inputSet.all
	index uint64        // noise index sent in the body
	nudge uint32        // 0, or how many nudgeSteps a fresh request moves its first value
	due   time.Duration // open loop: when it is sent, from the phase start
}

// plan is everything a run sends, fixed by (workload, seed, seconds).
type plan struct {
	warm    []req // every image the workload sends, once, before the measured phase
	measure []req // the measured phase, in sequence order
	quality []req // every clean, FGSM and PGD input once, for the flag rates
	hot     []int // the repeat cohort's inputs
}

// Seeded streams, one per independent choice, so changing how one is drawn
// never shifts another.
const (
	streamHot = iota + 1
	streamCohort
	streamIndex
	streamSchedule
	streamWarm
	streamQuality
)

// maxPlanRate bounds the closed-loop plan length in requests per measured
// second; clients stop at the end of the plan.
const maxPlanRate = 3000

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// makePlan builds the run's requests. Cohort slots are shuffled in blocks of
// the weights' sum and each cohort walks a seeded permutation of its pool,
// so every run covers the pools evenly and only the order differs by seed.
func makePlan(w workload, seed uint64, seconds int, in *inputSet) plan {
	var p plan
	hotR := newRand(seed, streamHot)
	clean := in.pools[cohortClean]
	for _, j := range hotR.Perm(len(clean))[:hotSize] {
		p.hot = append(p.hot, clean[j])
	}
	// One seeded noise index per image: the server does the same work
	// whatever index a request carries, and the oracle then recomputes each
	// image once per run instead of once per request.
	indices := make([]uint64, len(in.all))
	ir := newRand(seed, streamIndex)
	for i := range indices {
		indices[i] = uint64(ir.Uint32())
	}

	poolOf := func(cohort string) []int {
		if cohort == cohortRepeat {
			return p.hot
		}
		return in.pools[cohort]
	}
	gen := func(r *rand.Rand, n int) []req {
		var block []string
		walkers := map[string]*walker{}
		for _, c := range w.cohorts {
			for range c.weight {
				block = append(block, c.cohort)
			}
			walkers[c.cohort] = &walker{pool: poolOf(c.cohort)}
		}
		out := make([]req, 0, n)
		for len(out) < n {
			r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			for _, c := range block {
				if len(out) == n {
					break
				}
				i := walkers[c].next(r)
				q := req{input: i, index: indices[i]}
				if r.Float64() < w.fresh {
					q.nudge = uint32(len(out) + 1)
				}
				out = append(out, q)
			}
		}
		return out
	}

	// The warm-up sends every image the workload can send once, so the
	// truth caches hold them all before the measured phase: hot-repeat and
	// cluster-affinity then hit on every request, and auto-open misses only
	// on its fresh requests. Nothing in the measured phase drifts as the
	// caches fill.
	wr := newRand(seed, streamWarm)
	for _, c := range w.cohorts {
		for _, i := range poolOf(c.cohort) {
			p.warm = append(p.warm, req{input: i, index: indices[i]})
		}
	}
	wr.Shuffle(len(p.warm), func(i, j int) { p.warm[i], p.warm[j] = p.warm[j], p.warm[i] })

	if w.open {
		// Poisson arrivals conditioned on their count: given n arrivals in
		// the horizon, a Poisson process places them as n sorted uniform
		// draws. Fixing n = rate × seconds keeps the offered load equal
		// across seeds; only the burst pattern varies.
		sr := newRand(seed, streamSchedule)
		horizon := float64(seconds) * float64(time.Second)
		n := int(w.rate * float64(seconds))
		offs := make([]float64, n)
		for i := range offs {
			offs[i] = sr.Float64() * horizon
		}
		sort.Float64s(offs)
		p.measure = gen(newRand(seed, streamCohort), n)
		for i := range p.measure {
			p.measure[i].due = time.Duration(offs[i])
		}
	} else {
		p.measure = gen(newRand(seed, streamCohort), seconds*maxPlanRate)
	}

	// The quality pass's noise indices do not depend on the seed, so the
	// flag rates are one fixed number per served configuration, the
	// TPR/FPR the determinism contract pins; the seed sets only the order.
	var q []req
	for _, c := range []string{cohortClean, cohortFGSM, cohortPGD} {
		for _, i := range in.pools[c] {
			q = append(q, req{input: i, index: qualityIndexBase + uint64(i)})
		}
	}
	for _, j := range newRand(seed, streamQuality).Perm(len(q)) {
		p.quality = append(p.quality, q[j])
	}
	return p
}

// qualityIndexBase offsets the quality pass's fixed noise indices from the
// seeded ones, which are below 2^32.
const qualityIndexBase = 1 << 40

// walker draws a cohort's inputs: a fresh seeded permutation of the pool per
// pass, so each pass sends every pool member once.
type walker struct {
	pool  []int
	order []int
}

func (wk *walker) next(r *rand.Rand) int {
	if len(wk.order) == 0 {
		wk.order = r.Perm(len(wk.pool))
	}
	i := wk.order[0]
	wk.order = wk.order[1:]
	return wk.pool[i]
}
