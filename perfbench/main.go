// Command perfbench is the repository benchmark. It runs one named workload
// of the transactional memory stack for a fixed host-time budget, checks
// every run's output, and prints the end-to-end metrics (untraced) or the
// per-layer metrics (traced), ending with one JSON line:
//
//	perfbench --workload list-asf-8c --seed 1 --seconds 20 --trace 0
//
// A run simulates a fixed set of seeds derived from --seed, each from a
// fresh stack, and pools them; then it simulates seeds again until the
// budget is spent. Any difference in the simulated results between two
// simulations of one seed (traced or not) is a failure. See README.md for
// the metrics and what moves them.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	// A simulation drives all its cores from one host thread. With one P
	// the garbage collector runs on that thread too, so its pace does not
	// depend on how much CPU a second thread gets on a shared host: with
	// two Ps the server's peak RSS ranged 40-52 MB over ten runs and rose
	// with host load; with one it repeated to 0.1 %.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\"")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "host seconds to measure for")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1, --trace 0|1 and no positional arguments")
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := workloadByName(*name); ok {
		ws = []workload{w}
	} else {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", *name, strings.Join(names, ", "))
		return 2
	}

	budget := time.Duration(*seconds) * time.Second
	final := result{Correct: true, Metrics: map[string]value{}}
	for _, w := range ws {
		fmt.Fprintf(stdout, "# host %s\n", fingerprint(w.name, *seed))
		var r result
		if *trace == 1 {
			r = tracedRun(w, *seed, budget, stdout)
		} else {
			r = untracedRun(w, *seed, budget, stdout)
		}
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		final.Correct = final.Correct && r.Correct
		for k, v := range r.Metrics {
			if len(ws) > 1 {
				k = w.name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		return 1
	}
	return 0
}

// result is the last line of the output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// simulate runs w once from seed and checks the result, also against want's
// simulated results when want is set. A failure is reported on out.
func simulate(w workload, seed int64, h hooks, want *simResult, out io.Writer) (o outcome, ok bool) {
	runtime.GC() // so no earlier simulation's garbage is collected in this one
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(out, "# FAIL %s seed %d: panic: %v\n", w.name, seed, p)
			ok = false
		}
	}()
	before := refPass()
	o, err := w.rep(seed, h)
	o.refS = (before + refPass()) / 2
	if err == nil && want != nil && !sameSim(*want, o.sim) {
		err = fmt.Errorf("simulated results differ from the first simulation of this seed")
	}
	if err != nil {
		fmt.Fprintf(out, "# FAIL %s seed %d: %v\n", w.name, seed, err)
		return o, false
	}
	return o, true
}

// firsts holds each seed's first successful simulated results.
type firsts map[int64]simResult

func (f firsts) of(seed int64) *simResult {
	if r, ok := f[seed]; ok {
		return &r
	}
	return nil
}

// tally counts simulations attempted and failed.
type tally struct{ attempted, failed int }

func (t *tally) count(ok bool) bool {
	t.attempted++
	if !ok {
		t.failed++
	}
	return ok
}

// untracedRun simulates every seed of the run once for the metrics, then
// repeats them until the budget is spent (at least one repeat), checking
// that each repeat reproduces its seed's simulated results.
func untracedRun(w workload, seed int64, budget time.Duration, out io.Writer) result {
	begin := time.Now()
	seeds := w.seeds(seed)
	var t tally
	var outs []outcome
	first := firsts{}
	for _, sd := range seeds {
		if o, ok := simulate(w, sd, hooks{}, nil, out); t.count(ok) {
			outs = append(outs, o)
			first[sd] = o.sim
		}
	}
	for i := 0; i == 0 || time.Since(begin) < budget; i++ {
		sd := seeds[i%len(seeds)]
		_, ok := simulate(w, sd, hooks{}, first.of(sd), out)
		t.count(ok && first.of(sd) != nil)
	}
	r := result{Attempted: t.attempted, Failed: t.failed, Correct: t.failed == 0, Metrics: map[string]value{}}
	if len(outs) == 0 {
		return r
	}
	v := endToEndValues(outs, peakRSS())
	_, _, _, n := latencyQuantiles(sims(outs))
	fmt.Fprintf(out, "# %s seed %d: %d simulations over %d seeds, %d failed, fail_ratio %g, %d latency samples\n",
		w.name, seed, t.attempted, len(seeds), t.failed, float64(t.failed)/float64(t.attempted), n)
	fmt.Fprintf(out, "# uncalibrated medians: run_s %g, setup_s %g; reference pass %g s\n",
		median(field(outs, func(o outcome) float64 { return o.runS })),
		median(field(outs, func(o outcome) float64 { return o.setupS })),
		median(field(outs, func(o outcome) float64 { return o.refS })))
	for _, m := range endToEnd {
		r.Metrics[m.name] = value{v[m.name], m.unit}
		fmt.Fprintf(out, "%-20s %16.6g %s\n", m.name, v[m.name], m.unit)
	}
	return r
}

// tracedRun cycles through the run's first tracedSims seeds until the
// budget is spent (at least once through all), simulating each twice: untraced under
// the CPU profiler, for the host shares, and with the forwarding runtime's
// spans, for the span metrics. Every simulation must reproduce the first
// one of its seed exactly. The model's per-layer counts come from the
// first simulation of each seed.
func tracedRun(w workload, seed int64, budget time.Duration, out io.Writer) result {
	begin := time.Now()
	seeds := w.seeds(seed)[:w.tracedSims]
	counts := map[string]int64{}
	var profErr error
	var buf bytes.Buffer
	profiled := hooks{measure: func(start bool) {
		if start {
			buf.Reset()
			if err := pprof.StartCPUProfile(&buf); err != nil && profErr == nil {
				profErr = err
			}
			return
		}
		pprof.StopCPUProfile()
		if _, err := foldProfile(buf.Bytes(), counts); err != nil && profErr == nil {
			profErr = err
		}
	}}

	var t tally
	var plain, traced, once []outcome
	first := firsts{}
	var span spanTotals
	for i := 0; i < len(seeds) || time.Since(begin) < budget; i++ {
		sd := seeds[i%len(seeds)]
		o, ok := simulate(w, sd, profiled, first.of(sd), out)
		if t.count(ok) {
			plain = append(plain, o)
			if first.of(sd) == nil {
				once = append(once, o)
				first[sd] = o.sim
			}
		}
		fold := newSpanFold(w.cores)
		o, ok = simulate(w, sd, hooks{fold: fold}, first.of(sd), out)
		if t.count(ok && first.of(sd) != nil) {
			traced = append(traced, o)
			span.add(fold, o.runS)
		}
	}
	if profErr != nil {
		t.count(false)
		fmt.Fprintf(out, "# FAIL %s: CPU profile: %v\n", w.name, profErr)
	}
	r := result{Attempted: t.attempted, Failed: t.failed, Correct: t.failed == 0, Metrics: map[string]value{}}
	if len(once) == 0 {
		return r
	}

	v := simLayerValues(sims(once))
	for k, x := range hostShareValues(counts) {
		v[k] = x
	}
	all := append(slices.Clone(plain), traced...)
	v["setup.new_s"] = median(field(all, func(o outcome) float64 { return o.newS }))
	v["setup.populate_s"] = median(field(all, func(o outcome) float64 { return o.populateS }))
	v["host.alloc_bytes_per_memop"] = median(field(plain, func(o outcome) float64 {
		return float64(o.runAllocBytes) / float64(o.sim.memops())
	}))
	v["trace.overhead_ratio"] = 0
	if len(traced) > 0 {
		v["trace.overhead_ratio"] = median(field(traced, func(o outcome) float64 { return o.runS })) /
			median(field(plain, func(o outcome) float64 { return o.runS }))
	}
	var memops uint64
	for _, o := range traced {
		memops += o.sim.memops()
	}
	for k, x := range span.values(memops, len(traced)) {
		v[k] = x
	}

	fmt.Fprintf(out, "# %s seed %d: %d simulations over %d seeds (%d profiled, %d traced), %d failed, %d profile samples\n",
		w.name, seed, t.attempted, len(seeds), len(plain), len(traced), t.failed, sumCounts(counts))
	for _, m := range perLayer {
		r.Metrics[m.name] = value{v[m.name], m.unit}
		fmt.Fprintf(out, "%-34s %16.6g %s\n", m.name, v[m.name], m.unit)
	}
	return r
}

func sumCounts(counts map[string]int64) int64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	return n
}

// spanTotals accumulates the folds of the traced simulations.
type spanTotals struct {
	self     [numSpanKinds]int64
	calls    [numSpanKinds]uint64
	handoff  int64
	switches uint64
	runNS    int64
}

func (t *spanTotals) add(f *spanFold, runS float64) {
	for k := range t.self {
		t.self[k] += f.self[k]
		t.calls[k] += f.calls[k]
	}
	t.handoff += f.handoff
	t.switches += f.switches
	t.runNS += int64(runS * 1e9)
}

// values computes the span metrics of n traced simulations that made
// memops simulated accesses in all.
func (t *spanTotals) values(memops uint64, n int) map[string]float64 {
	per := func(ns int64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	v := map[string]float64{
		"tm.atomic_self_ns": per(t.self[spanAtomic], t.calls[spanAtomic]),
		"tm.barrier_ns":     per(t.self[spanBarrier], t.calls[spanBarrier]),
	}
	if n > 0 {
		v["tm.barrier_calls"] = float64(t.calls[spanBarrier]) / float64(n)
		v["sim.core_switches_per_memop"] = ratio(t.switches, memops)
	}
	if t.runNS > 0 {
		v["sim.handoff_gap_share"] = float64(t.handoff) / float64(t.runNS)
	}
	return v
}

// peakRSS returns the process's peak resident set in bytes.
func peakRSS() uint64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return uint64(ru.Maxrss) * 1024 // Linux reports KiB
}

// fingerprint identifies the host and inputs a result was measured with.
func fingerprint(workload string, seed int64) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fp := map[string]any{
		"workload": workload, "seed": seed, "go": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"cpu": cpu, "sim_engine": "serial",
	}
	b, _ := json.Marshal(fp) // cannot fail: strings and numbers only
	return string(b)
}
