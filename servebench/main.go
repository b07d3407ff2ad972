// Command servebench is the serving benchmark: it builds ./cmd/advhunter from
// the tree it runs in, boots `advhunter serve` (or `advhunter cluster`) on
// scenario S2 as a child process, drives it over loopback HTTP with one of
// four seeded traffic mixes, checks every response against an in-process
// oracle, and prints the end-to-end metrics (-trace 0) or the per-layer
// metrics (-trace 1). The last line of standard output is one JSON object.
//
// Run it from the repository root through run.sh:
//
//	bash servebench/run.sh --workload hot-repeat --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"advhunter/internal/detect"
	"advhunter/internal/experiments"
	"advhunter/internal/twin"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: exact-miss, hot-repeat, auto-open or cluster-affinity")
	seed := fs.Uint64("seed", 1, "workload seed: cohort draws, request order, noise indices, schedule")
	seconds := fs.Int("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "servebench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	res, err := bench(ctx, w, *seed, *seconds, *trace == 1, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// digestSize is how many measured requests, in sequence order, the response
// digest and the traced run cover; every workload completes more in a second.
const digestSize = 200

// setupBoots is how many times a -trace 0 run boots the server; setup_s is
// the median.
const setupBoots = 3

// newStack loads the served configuration in process: the model and
// detector from the committed cache, and under the auto tier the twin table
// and its recalibrated detector.
func newStack(env *experiments.Env, w workload) (*stack, error) {
	dcfg := detect.DefaultConfig()
	dcfg.GMM.Seed = 1 // the -seed flag's default
	det, err := env.DetectorKind("gmm", dcfg)
	if err != nil {
		return nil, fmt.Errorf("fitting detector: %w", err)
	}
	s := &stack{meas: env.Meas, det: det, decIdx: decisionChannel(det)}
	if w.tier == "auto" {
		tm, tdet, _, err := env.TwinBackend(filepath.Join("artifacts", "twin", "S2.gob"), twin.DefaultKnots, det.Kind(), dcfg)
		if err != nil {
			return nil, fmt.Errorf("loading twin: %w", err)
		}
		s.twin, s.twinD = tm, tdet
	}
	return s, nil
}

func bench(ctx context.Context, w workload, seed uint64, seconds int, traced bool, stdout, stderr io.Writer) (*result, error) {
	if _, err := os.Stat(filepath.Join("cmd", "advhunter")); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	bin, err := buildProgram()
	if err != nil {
		return nil, err
	}
	env, err := experiments.LoadEnv("S2", experiments.Options{CacheDir: filepath.Join("artifacts", "cache")})
	if err != nil {
		return nil, err
	}
	in, err := loadInputs(env)
	if err != nil {
		return nil, err
	}
	st, err := newStack(env, w)
	if err != nil {
		return nil, err
	}
	p := makePlan(w, seed, seconds, in)

	boots := setupBoots
	if traced {
		boots = 1
	}
	var setups []float64
	var c *child
	for range boots {
		if c != nil {
			c.stop()
		}
		var d time.Duration
		if c, d, err = startChild(bin, w); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer c.stop()

	ph, err := drivePhases(ctx, c, w, in, p, seconds, !traced)
	c.stop()
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	// Check every response against the oracle.
	all := append(append(append([]outcome(nil), ph.warm...), ph.measure...), ph.quality...)
	reqs := make([]req, len(all))
	for i, o := range all {
		reqs[i] = o.req
	}
	want := st.oracle(w.tier, in, reqs)
	res := &result{Correct: true, Attempted: len(all), Metrics: map[string]metric{}}
	var failures []string
	parsed := make([]wireResponse, len(all))
	failedAt := make([]bool, len(all))
	fail := func(i int, format string, args ...any) {
		if !failedAt[i] {
			failedAt[i] = true
			res.Failed++
		}
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	for i, o := range all {
		var err error
		switch {
		case o.err != nil:
			err = o.err
		case !o.ok():
			err = fmt.Errorf("status %d: %s", o.status, strings.TrimSpace(string(o.body)))
		default:
			parsed[i], err = st.check(o.body, o.index, want[keyOf(o.req)])
		}
		if err != nil {
			fail(i, "request %d (input %d, index %d): %v", i, o.input, o.index, err)
		}
	}

	// The response digest over the first digestSize measured requests must
	// repeat exactly across runs of one seed.
	if len(ph.measure) < digestSize {
		return nil, fmt.Errorf("only %d measured requests completed, the digest needs %d", len(ph.measure), digestSize)
	}
	digest, mismatched, err := checkDigest(w.name, seed, ph.measure[:digestSize])
	if err != nil {
		return nil, err
	}
	for _, k := range mismatched {
		fail(len(ph.warm)+k, "measured request %d: body differs from an earlier run of seed %d", k, seed)
	}

	fmt.Fprintf(stdout, "servebench workload=%s seed=%d seconds=%d trace=%v\n", w.name, seed, seconds, traced)
	if traced {
		tr, err := st.tracedRun(w, in, p.warm, p.measure[:digestSize],
			filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed)))
		if err != nil {
			return nil, err
		}
		for k, b := range tr.bodies {
			if !bytes.Equal(b, ph.measure[k].body) {
				fail(len(ph.warm)+k, "traced request %d: in-process body differs from the HTTP body", k)
			}
		}
		for name, m := range layerMetrics(w, ph, tr.metrics) {
			res.Metrics[name] = m
		}
	} else {
		for name, m := range endToEnd(w, ph, setups, parsed[len(ph.warm)+len(ph.measure):], in) {
			res.Metrics[name] = m
		}
	}
	if !traced {
		// failed_frac is 0 on a healthy run; its complement is reported so
		// the metric is never 0.
		res.Metrics["success_frac"] = metric{1 - ratio(float64(res.Failed), float64(res.Attempted)), "frac"}
	}
	if len(failures) > 0 {
		res.Correct = false
		for i, f := range failures {
			if i == 10 {
				fmt.Fprintf(stderr, "… %d more failures\n", len(failures)-i)
				break
			}
			fmt.Fprintln(stderr, "FAIL", f)
		}
	}
	fmt.Fprintf(stdout, "%-28s %.6f (%d/%d)\n", "failed_frac", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	fmt.Fprintf(stdout, "%-28s %s (first %d measured requests)\n", "responses_sha256", digest, digestSize)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-28s %.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, note := range ph.notes {
		fmt.Fprintln(stdout, note)
	}
	return res, nil
}

// checkDigest hashes each body and the whole sequence, compares the
// per-request hashes with the ones an earlier run of the same workload and
// seed stored in this checkout, and stores them when there are none. It
// returns the sequence digest and the positions whose body changed.
func checkDigest(workload string, seed uint64, outs []outcome) (string, []int, error) {
	all := sha256.New()
	hashes := make([]string, len(outs))
	for k, o := range outs {
		all.Write(o.body)
		h := sha256.Sum256(o.body)
		hashes[k] = hex.EncodeToString(h[:])
	}
	digest := hex.EncodeToString(all.Sum(nil))
	path := filepath.Join(buildDir, "digests", fmt.Sprintf("%s-seed%d.txt", workload, seed))
	prev, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return "", nil, err
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return "", nil, err
		}
		return digest, nil, os.WriteFile(path, []byte(strings.Join(hashes, "\n")+"\n"), 0o644)
	}
	var bad []int
	old := strings.Fields(string(prev))
	for k, h := range hashes {
		if k >= len(old) || old[k] != h {
			bad = append(bad, k)
		}
	}
	return digest, bad, nil
}
