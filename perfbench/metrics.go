package main

import (
	"slices"

	"asfstack/internal/metrics"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// metric describes one reported number. The tables below are the source
// BENCHMARK.json is checked against (see TestBenchmarkJSONMatchesTables).
type metric struct {
	name, unit, better string
}

// endToEnd are reported by untraced runs. The sim_* metrics are outputs of
// the timing model: deterministic for a seed, and unchanged by any change
// that only speeds up the simulator.
var endToEnd = []metric{
	{"run_s", "s", "lower"},
	{"host_ns_per_memop", "ns", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"sim_tx_per_us", "1/us", "higher"},
	{"sim_p50_cyc", "cyc", "lower"},
	{"sim_p99_cyc", "cyc", "lower"},
	{"sim_p999_cyc", "cyc", "lower"},
}

// perLayer are reported by traced runs.
var perLayer = []metric{
	{"sim.host_share", "share", "lower"},
	{"sim.handoff_host_share", "share", "lower"},
	{"sim.handoff_gap_share", "share", "lower"},
	{"sim.core_switches_per_memop", "1/memop", "lower"},
	{"sim.cycles.non_instr_share", "share", "higher"},
	{"sim.cycles.tx_app_share", "share", "higher"},
	{"sim.cycles.tx_loadstore_share", "share", "lower"},
	{"sim.cycles.tx_startcommit_share", "share", "lower"},
	{"sim.cycles.abort_share", "share", "lower"},
	{"sim.latency_samples", "count", "higher"},
	{"cache.host_share", "share", "lower"},
	{"cache.l1_hit_ratio", "ratio", "higher"},
	{"cache.mem_fills", "count", "lower"},
	{"cache.c2c_transfers", "count", "lower"},
	{"cache.xsock_hops", "count", "lower"},
	{"cache.l3_remote_hits", "count", "lower"},
	{"cache.tlb_walks", "count", "lower"},
	{"asf.host_share", "share", "lower"},
	{"asf.starts", "count", "lower"},
	{"asf.commit_ratio", "ratio", "higher"},
	{"asf.aborts.contention", "count", "lower"},
	{"asf.aborts.capacity", "count", "lower"},
	{"asf.llb_highwater", "lines", "lower"},
	{"asf.xsock_probes", "count", "lower"},
	{"tm.host_share", "share", "lower"},
	{"tm.atomic_self_ns", "ns", "lower"},
	{"tm.barrier_ns", "ns", "lower"},
	{"tm.barrier_calls", "count", "lower"},
	{"tm.abort_ratio", "ratio", "lower"},
	{"tm.serial_share", "ratio", "lower"},
	{"tm.sw_commits", "count", "lower"},
	{"adaptive.switches", "count", "lower"},
	{"txlib.host_share", "share", "lower"},
	{"workload.host_share", "share", "lower"},
	{"observers.host_share", "share", "lower"},
	{"setup.host_share", "share", "lower"},
	{"setup.new_s", "s", "lower"},
	{"setup.populate_s", "s", "lower"},
	{"bench.host_share", "share", "lower"},
	{"other.host_share", "share", "lower"},
	{"host.gc_share", "share", "lower"},
	{"host.alloc_bytes_per_memop", "B", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// field collects one host field of every simulation.
func field(outs []outcome, f func(outcome) float64) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = f(o)
	}
	return xs
}

func sims(outs []outcome) []simResult {
	rs := make([]simResult, len(outs))
	for i, o := range outs {
		rs[i] = o.sim
	}
	return rs
}

// endToEndValues computes the untraced metrics from one pass over the
// run's seeds: host times are medians over its simulations, each
// calibrated by its own reference pass; simulated figures pool all of
// them.
func endToEndValues(outs []outcome, peakRSS uint64) map[string]float64 {
	rs := sims(outs)
	var cycles, commits uint64
	for _, r := range rs {
		cycles += r.cycles
		commits += r.stats.Commits
	}
	p50, p99, p999, _ := latencyQuantiles(rs)
	runS := func(o outcome) float64 { return calibrated(o.runS, o.refS) }
	return map[string]float64{
		"run_s":             median(field(outs, runS)),
		"host_ns_per_memop": median(field(outs, func(o outcome) float64 { return runS(o) * 1e9 / float64(o.sim.memops()) })),
		"setup_s":           median(field(outs, func(o outcome) float64 { return calibrated(o.setupS, o.refS) })),
		"peak_rss_mb":       float64(peakRSS) / (1 << 20),
		"alloc_mb":          median(field(outs, func(o outcome) float64 { return float64(o.allocBytes) })) / (1 << 20),
		"sim_tx_per_us":     float64(commits) / (float64(cycles) / 2200),
		"sim_p50_cyc":       p50,
		"sim_p99_cyc":       p99,
		"sim_p999_cyc":      p999,
	}
}

// latencyQuantiles merges the latency histograms of rs and interpolates
// its quantiles as the server's own report does.
func latencyQuantiles(rs []simResult) (p50, p99, p999 float64, n uint64) {
	h := metrics.HistSnap{Bounds: rs[0].lat.Bounds, Counts: make([]uint64, len(rs[0].lat.Counts))}
	for _, r := range rs {
		for i, c := range r.lat.Counts {
			h.Counts[i] += c
		}
		h.Count += r.lat.Count
		h.Max = max(h.Max, r.lat.Max)
	}
	return h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999), h.Count
}

// simLayerValues computes the per-layer counts and ratios of the model,
// summed over the simulations rs.
func simLayerValues(rs []simResult) map[string]float64 {
	gauge := func(name string) (t uint64) {
		for _, r := range rs {
			t += gaugeTotal(r.snap, name)
		}
		return t
	}
	counter := func(name string) (t uint64) {
		for _, r := range rs {
			t += counterTotal(r.snap, name)
		}
		return t
	}
	v := map[string]float64{}
	var cyc [sim.NumCategories]uint64
	var total uint64
	for k := range cyc {
		cyc[k] = gauge("sim/cycles/" + sim.Category(k).String())
		total += cyc[k]
	}
	for k, name := range []string{"non_instr", "tx_app", "tx_loadstore", "tx_startcommit", "abort"} {
		v["sim.cycles."+name+"_share"] = ratio(cyc[k], total)
	}
	_, _, _, n := latencyQuantiles(rs)
	v["sim.latency_samples"] = float64(n)

	v["cache.l1_hit_ratio"] = ratio(gauge("cache/l1_hits"), gauge("cache/loads")+gauge("cache/stores"))
	for _, n := range []string{"mem_fills", "c2c_transfers", "xsock_hops", "l3_remote_hits", "tlb_walks"} {
		v["cache."+n] = float64(gauge("cache/" + n))
	}

	starts := counter("asf/starts")
	v["asf.starts"] = float64(starts)
	v["asf.commit_ratio"] = ratio(counter("asf/commits"), starts)
	for _, reason := range []sim.AbortReason{sim.AbortContention, sim.AbortCapacity} {
		v["asf.aborts."+reason.String()] = float64(counter("asf/aborts/" + reason.String()))
	}
	var llb uint64
	for _, r := range rs {
		if g, ok := r.snap.Gauge("asf/llb_highwater"); ok {
			llb = max(llb, slices.Max(g.PerCore))
		}
	}
	v["asf.llb_highwater"] = float64(llb)
	v["asf.xsock_probes"] = float64(counter("asf/xsock_probes"))

	var st tm.Stats
	for _, r := range rs {
		st.Add(r.stats)
	}
	v["tm.abort_ratio"] = ratio(st.TotalAborts(), st.Attempts())
	v["tm.serial_share"] = ratio(st.Serial, st.Commits)
	v["tm.sw_commits"] = float64(st.SWCommits)
	v["adaptive.switches"] = float64(counter("adaptive/switches"))
	return v
}

// hostShareValues turns layer sample counts into the *.host_share metrics.
func hostShareValues(counts map[string]int64) map[string]float64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	v := map[string]float64{}
	for _, l := range hostLayers {
		v[shareName(l)] = 0
		if n > 0 {
			v[shareName(l)] = float64(counts[l]) / float64(n)
		}
	}
	return v
}

// shareName is the metric that reports a host layer's share.
func shareName(layer string) string {
	switch layer {
	case "sim.handoff":
		return "sim.handoff_host_share"
	case "host.gc":
		return "host.gc_share"
	}
	return layer + ".host_share"
}
