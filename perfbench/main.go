// Command perfbench is the repository benchmark. It drives the simulator
// from outside, through its public functions only, on one of four
// workloads, and prints one JSON result line:
//
//	perfbench --workload guest-loop --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced
// iterations; with --trace 1 it splits the same workload by layer with a
// trace.Tracer attached, and writes every recorded span to
// .bench_build/spans/. See README.md for what each workload loads and
// which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload runs one iteration of a workload into it.
type workload func(it *iter) error

var byName = map[string]workload{
	"guest-loop": guestLoop,
	"net-serve":  netServe,
	"paper-eval": paperEval,
	"fork-churn": forkChurn,
}

// minIters is the fewest iterations a run measures: the determinism
// self-check needs two, and one more keeps a single outlier out of the
// median.
const minIters = 3

// spanDir is where the traced run writes its spans, under the build
// directory run.sh uses, relative to the checkout root.
const spanDir = ".bench_build/spans"

// gcLimit is the heap size at which the Go runtime collects on its own.
const gcLimit = 2 << 30

func main() {
	name := flag.String("workload", "", "workload: guest-loop, net-serve, paper-eval or fork-churn")
	seed := flag.Uint64("seed", 1, "input generator seed")
	seconds := flag.Float64("seconds", 25, "how long to measure")
	traceOn := flag.Int("trace", 0, "1: split by layer with a tracer attached")
	flag.Parse()
	w, ok := byName[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	// Collect garbage only where the benchmark asks (between backends
	// and between systems, see iter.collectGarbage), so every run pays
	// the same collections at the same points; the limit is a backstop.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(gcLimit)
	res, err := measure(*name, w, *seed, *seconds, *traceOn == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measure runs iterations of w until the time budget is spent, checks
// them, and reduces them to medians. A first warm-up iteration (fresh
// heap, cold caches) is checked but not measured; then at least minIters
// iterations of each kind are. Untraced iterations give the end-to-end
// metrics; a traced run spends the first half of its budget untraced (the
// baseline for trace.overhead_pct and for host-time layer metrics) and
// the second half traced.
func measure(name string, w workload, seed uint64, seconds float64, traced bool) (*result, error) {
	var sp *spans
	if traced {
		sp = newSpans()
	}
	count := 0
	iterate := func(tr bool) *iter {
		if sp != nil {
			sp.run = count
		}
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		it := newIter(seed, tr, count, sp)
		count++
		t0 := time.Now()
		end := sp.begin("iteration")
		it.probe()
		err := w(it)
		end()
		it.wallS = time.Since(t0).Seconds() - it.probeNS/1e9
		runtime.ReadMemStats(&ms1)
		if err != nil {
			it.fail(err)
		}
		it.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		return it
	}
	samples := []*iter{iterate(false)} // the warm-up
	measured := func(tr bool, budget float64) {
		start := time.Now()
		for n := 0; n < minIters || time.Since(start).Seconds() < budget; n++ {
			samples = append(samples, iterate(tr))
		}
	}
	if traced {
		measured(false, seconds/2)
		measured(true, seconds/2)
		selfMS(sp, samples)
	} else {
		measured(false, seconds)
	}

	res := &result{Metrics: map[string]metricValue{}}
	for _, it := range samples {
		res.Attempted += it.attempted
		res.Failed += it.failed
		for _, e := range it.errs {
			fmt.Fprintf(os.Stderr, "check failed (iteration %d): %s\n", it.index, e)
		}
	}
	// Determinism self-check: every iteration of one seed must reproduce
	// the first iteration's simulated results exactly.
	res.Attempted++
	if diff := simDiff(samples); diff != "" {
		res.Failed++
		fmt.Fprintf(os.Stderr, "determinism self-check failed: %s\n", diff)
	}
	res.Correct = res.Failed == 0

	var plain, tracedS []*iter
	for _, it := range samples[1:] {
		if it.traced {
			tracedS = append(tracedS, it)
		} else {
			plain = append(plain, it)
		}
	}
	// A failed run may leave a rate without a denominator; it still
	// reports, as 0, with correct false.
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metricValue{v, unit}
	}
	first := samples[0]
	if !traced {
		scale := refScale(plain)
		for _, m := range endToEnd {
			put(m.Name, m.Unit, m.value(plain, scale))
		}
		fmt.Fprintf(os.Stderr, "reference probe: median %.3f ms over %d probes, host times scaled by %.4f; unscaled:", refNominalMS/scale, probeCount(plain), scale)
		for _, m := range endToEnd {
			if v := m.value(plain, 1); v != m.value(plain, scale) {
				fmt.Fprintf(os.Stderr, " %s=%.6g", m.Name, v)
			}
		}
		fmt.Fprintln(os.Stderr)
	} else {
		errRate := float64(res.Failed) / float64(res.Attempted)
		for _, m := range perLayer {
			var v float64
			switch {
			case m.Name == "trace.overhead_pct":
				v = 100 * (medianOf(tracedS, wall)/medianOf(plain, wall) - 1)
			case m.Name == "error_rate":
				v = errRate
			case m.Src == srcSim:
				v = first.sim[m.Name]
			case m.Src == srcHost:
				v = medianOf(plain, func(it *iter) float64 { return it.layerValue(m.Name) })
			default:
				v = medianOf(tracedS, func(it *iter) float64 { return it.layerValue(m.Name) })
			}
			put(m.Name, m.Unit, v)
		}
		path := fmt.Sprintf("%s/%s-seed%d.json", spanDir, name, seed)
		if err := sp.write(path, name, seed); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "spans: %s (%d spans)\n", path, len(sp.all))
	}
	report(name, seed, samples, res)
	return res, nil
}

// selfMS sets each traced iteration's perfbench.self_ms: the self time of
// the benchmark's own iteration and backend spans, which is the time
// spent outside every timed call.
func selfMS(sp *spans, its []*iter) {
	byRun := map[int][]Span{}
	for _, s := range sp.all {
		byRun[s.Run] = append(byRun[s.Run], s)
	}
	for _, it := range its {
		if !it.traced {
			continue
		}
		for name, ns := range selfTimes(byRun[it.index]) {
			if name == "iteration" || strings.HasPrefix(name, "backend ") {
				it.layer["perfbench.self_ms"] += float64(ns) / 1e6
			}
		}
	}
}

// probeCount is how many reference probes the iterations made.
func probeCount(its []*iter) int {
	n := 0
	for _, it := range its {
		n += len(it.refMS)
	}
	return n
}

// medianOf is the median of f over iterations.
func medianOf(its []*iter, f func(*iter) float64) float64 {
	xs := make([]float64, len(its))
	for i, it := range its {
		xs[i] = f(it)
	}
	return median(xs)
}

func wall(it *iter) float64 { return it.wallS }

// simDiff compares every iteration's simulated results with the first's
// and describes the first mismatch ("" when all agree).
func simDiff(its []*iter) string {
	ref := its[0].sim
	for _, it := range its[1:] {
		for k, v := range ref {
			if got, ok := it.sim[k]; !ok || got != v {
				return fmt.Sprintf("iteration %d: %s = %v, iteration 0 had %v", it.index, k, got, v)
			}
		}
		if len(it.sim) != len(ref) {
			return fmt.Sprintf("iteration %d reports %d simulated results, iteration 0 had %d", it.index, len(it.sim), len(ref))
		}
	}
	return ""
}

// rssMB reads the process's resident set (VmRSS) in MiB.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return math.NaN()
}

// report prints a human-readable summary on stderr.
func report(name string, seed uint64, ss []*iter, res *result) {
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d iterations=%d correct=%v attempted=%d failed=%d\n",
		name, seed, len(ss), res.Correct, res.Attempted, res.Failed)
	fmt.Fprintf(os.Stderr, "  iteration wall s:")
	for _, s := range ss {
		fmt.Fprintf(os.Stderr, " %.3f", s.wallS)
	}
	fmt.Fprintln(os.Stderr)

	sim := ss[0].sim
	keys := make([]string, 0, len(sim))
	for k := range sim {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  sim %-34s %.6g\n", k, sim[k])
	}
	keys = keys[:0]
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Fprintf(os.Stderr, "  %-38s %14.6g %s\n", k, m.Value, m.Unit)
	}
}
