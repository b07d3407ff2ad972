package main

// Readers for the three outside views of the server process: the Prometheus
// text page at /metrics, the runtime.MemStats block that
// /debug/pprof/heap?debug=1 appends, and /proc/<pid>/{stat,status}.

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// sample is one exposition line: metric name, labels, value.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// promPage is one parsed /metrics scrape.
type promPage []sample

// parseProm parses the Prometheus text exposition format. Comment and blank
// lines are skipped; a malformed sample line is an error.
func parseProm(text string) (promPage, error) {
	var page promPage
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln+1, err)
		}
		page = append(page, s)
	}
	return page, nil
}

func parseSampleLine(line string) (sample, error) {
	s := sample{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("no metric name in %q", line)
	}
	s.name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, " ,")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq <= 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				return s, fmt.Errorf("bad label in %q", line)
			}
			key := rest[:eq]
			val, tail, err := unquoteLabel(rest[eq+1:])
			if err != nil {
				return s, fmt.Errorf("%w in %q", err, line)
			}
			s.labels[key] = val
			rest = tail
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.value = v
	return s, nil
}

// unquoteLabel reads one double-quoted label value with \\, \" and \n
// escapes and returns it with the text after the closing quote.
func unquoteLabel(s string) (string, string, error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(s[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

// matches reports whether the sample carries every label in want.
func (s sample) matches(name string, want map[string]string) bool {
	if s.name != name {
		return false
	}
	for k, v := range want {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// sum adds every series of name whose labels include want — summing over
// the labels want leaves open, such as a cluster's per-replica label.
func (p promPage) sum(name string, want map[string]string) float64 {
	var t float64
	for _, s := range p {
		if s.matches(name, want) {
			t += s.value
		}
	}
	return t
}

// byLabel sums the series of name per value of one label.
func (p promPage) byLabel(name, label string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range p {
		if s.name == name {
			out[s.labels[label]] += s.value
		}
	}
	return out
}

// bucket is one cumulative histogram bucket: the count of observations at
// or below le.
type bucket struct {
	le    float64
	count float64
}

// hist is a histogram's state, or the difference of two states.
type hist struct {
	buckets []bucket // ascending le, last one +Inf
	sum     float64
	count   float64
}

// histogram folds the _bucket/_sum/_count series of name matching want,
// summed over the labels want leaves open.
func (p promPage) histogram(name string, want map[string]string) hist {
	byLE := map[float64]float64{}
	for _, s := range p {
		if !s.matches(name+"_bucket", want) {
			continue
		}
		le, err := strconv.ParseFloat(s.labels["le"], 64)
		if err != nil {
			continue
		}
		byLE[le] += s.value
	}
	h := hist{sum: p.sum(name+"_sum", want), count: p.sum(name+"_count", want)}
	for le, c := range byLE {
		h.buckets = append(h.buckets, bucket{le: le, count: c})
	}
	sort.Slice(h.buckets, func(i, j int) bool { return h.buckets[i].le < h.buckets[j].le })
	return h
}

// delta is the histogram of the observations made between before and h.
func (h hist) delta(before hist) hist {
	d := hist{sum: h.sum - before.sum, count: h.count - before.count}
	prev := map[float64]float64{}
	for _, b := range before.buckets {
		prev[b.le] = b.count
	}
	for _, b := range h.buckets {
		d.buckets = append(d.buckets, bucket{le: b.le, count: b.count - prev[b.le]})
	}
	return d
}

// mean is the average observation, 0 when there were none.
func (h hist) mean() float64 { return ratio(h.sum, h.count) }

// quantile estimates the q-quantile the way Prometheus's histogram_quantile
// does: find the bucket holding rank q·count and interpolate linearly inside
// it, taking 0 as the lower edge of the first bucket. A rank in the +Inf
// bucket reports the highest finite bound. It returns 0 for an empty
// histogram.
func (h hist) quantile(q float64) float64 {
	if len(h.buckets) == 0 {
		return 0
	}
	total := h.buckets[len(h.buckets)-1].count
	if total <= 0 {
		return 0
	}
	rank := q * total
	lower, prevCount := 0.0, 0.0
	for i, b := range h.buckets {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				if i == 0 {
					return 0
				}
				return h.buckets[i-1].le
			}
			if b.count == prevCount {
				return b.le
			}
			return lower + (b.le-lower)*(rank-prevCount)/(b.count-prevCount)
		}
		lower, prevCount = b.le, b.count
	}
	return lower
}

// memStats are the allocation totals of one runtime.MemStats snapshot.
type memStats struct {
	totalAlloc float64 // bytes allocated over the process lifetime
	mallocs    float64 // heap objects allocated over the process lifetime
}

// parseHeapDebug reads the "# runtime.MemStats" block of a
// /debug/pprof/heap?debug=1 page.
func parseHeapDebug(text string) (memStats, error) {
	var m memStats
	var seen int
	for _, line := range strings.Split(text, "\n") {
		key, val, ok := strings.Cut(strings.TrimPrefix(strings.TrimSpace(line), "# "), " = ")
		if !ok {
			continue
		}
		var dst *float64
		switch key {
		case "TotalAlloc":
			dst = &m.totalAlloc
		case "Mallocs":
			dst = &m.mallocs
		default:
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return m, fmt.Errorf("heap page %s: %w", key, err)
		}
		*dst = v
		seen++
	}
	if seen != 2 {
		return m, fmt.Errorf("heap page has no runtime.MemStats TotalAlloc/Mallocs")
	}
	return m, nil
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; Linux
// fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// parseProcStat returns utime+stime, in seconds, from a /proc/<pid>/stat
// line. The command name (field 2) may hold spaces and parentheses, so the
// fields are counted from the last ')'.
func parseProcStat(line string) (float64, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(line[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return float64(ut+st) / clockTicks, nil
}

// parseVmHWM returns the peak resident set, in bytes, from /proc/<pid>/status.
func parseVmHWM(text string) (float64, error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: bad VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %w", err)
		}
		return kb * 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM")
}

// procCPU reads a live process's utime+stime in seconds.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

// procHWM reads a live process's peak resident set in bytes.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}
