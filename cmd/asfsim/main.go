// Command asfsim runs a single workload configuration on the simulated ASF
// stack and prints its measurements — the one-off counterpart to
// cmd/asfbench's full sweeps.
//
//	asfsim -workload intset -structure rbtree -runtime LLB-256 -threads 8
//	asfsim -workload stamp -app vacation-low -runtime STM -threads 4
//	asfsim -workload server -runtime LLB-256 -topology 2x8 -load 1.4
//	asfsim -workload intset -topology 4x16 -engine epoch
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"asfstack"
	"asfstack/internal/intset"
	"asfstack/internal/metrics"
	"asfstack/internal/server"
	"asfstack/internal/sim"
	"asfstack/internal/stamp"
)

// runtimeHelp is the -runtime flag's usage text: every accepted runtime
// name, in figure order.
func runtimeHelp() string { return strings.Join(asfstack.RuntimeNames, ", ") }

func main() {
	workload := flag.String("workload", "intset", "intset, stamp, or server")
	runtimeName := flag.String("runtime", "LLB-256", runtimeHelp())
	threads := flag.Int("threads", 4, "simulated cores (ignored when -topology is set)")
	seed := flag.Int64("seed", 42, "random seed")
	topology := flag.String("topology", "",
		"socket layout, e.g. 2x8 (sockets x cores-per-socket); empty = single socket; overrides -threads")
	engineFlag := flag.String("engine", "serial",
		"simulator execution engine: serial or epoch (results are bit-identical)")
	epochLen := flag.Uint64("epoch-len", 0,
		"epoch length in simulated cycles for -engine epoch (0 = default)")

	structure := flag.String("structure", "rbtree", "intset: linkedlist, skiplist, rbtree, hashset")
	keyRange := flag.Uint64("range", 1024, "intset: key range")
	update := flag.Int("update", 20, "intset: update percentage")
	ops := flag.Int("ops", 1500, "intset: operations per thread")
	early := flag.Bool("early-release", false, "intset: hand-over-hand list traversal")

	app := flag.String("app", "genome", "stamp: application name")
	scale := flag.Float64("scale", 1.0, "stamp/server: input scale")

	load := flag.Float64("load", 0.7, "server: offered per-core load (fraction of nominal service rate; >= 1 is overload)")
	requests := flag.Int("requests", 0, "server: requests per core (0 = default from scale)")
	zipf := flag.Float64("zipf", 1.2, "server: item-key Zipf skew exponent (> 1)")
	flag.Parse()

	engine, err := sim.ParseEngine(*engineFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asfsim:", err)
		os.Exit(2)
	}
	// With an explicit topology the core count comes from it; keep the
	// workload configs unambiguous by zeroing -threads' default.
	if *topology != "" {
		*threads = 0
	}

	switch *workload {
	case "intset":
		r, err := intset.Run(intset.Config{
			Structure: *structure, Runtime: *runtimeName, Threads: *threads,
			Range: *keyRange, UpdatePct: *update, OpsPerThread: *ops,
			EarlyRelease: *early, Seed: *seed,
			Engine: engine, EpochLen: *epochLen, Topology: *topology,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "asfsim:", err)
			os.Exit(1)
		}
		fmt.Printf("workload     intset %s (range=%d, %d%% upd, %d threads)\n",
			*structure, *keyRange, *update, r.Config.Threads)
		fmt.Printf("runtime      %s\n", *runtimeName)
		printTopology(*topology, r.Metrics)
		fmt.Printf("throughput   %.2f tx/µs\n", r.Throughput())
		fmt.Printf("duration     %.3f ms simulated\n", float64(r.Cycles)/2_200_000)
		printStats(r.Stats.Commits, r.Stats.Serial, r.Stats.TotalAborts(), r.Stats.STMAborts)
		printBreakdown(r.Breakdown)
	case "stamp":
		r, err := stamp.Run(stamp.Config{
			App: *app, Runtime: *runtimeName, Threads: *threads,
			Scale: *scale, Seed: *seed,
			Engine: engine, EpochLen: *epochLen, Topology: *topology,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "asfsim:", err)
			os.Exit(1)
		}
		fmt.Printf("workload     stamp %s (scale %.2f, %d threads)\n", *app, *scale, r.Config.Threads)
		fmt.Printf("runtime      %s\n", *runtimeName)
		printTopology(*topology, r.Metrics)
		fmt.Printf("duration     %.3f ms simulated\n", r.Millis)
		printStats(r.Stats.Commits, r.Stats.Serial, r.Stats.TotalAborts(), r.Stats.STMAborts)
		printBreakdown(r.Breakdown)
	case "server":
		r, err := server.Run(server.Config{
			Runtime: *runtimeName, Threads: *threads, Topology: *topology,
			RequestsPerCore: *requests, Load: *load, ZipfS: *zipf,
			Scale: *scale, Seed: *seed,
			Engine: engine, EpochLen: *epochLen,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "asfsim:", err)
			os.Exit(1)
		}
		fmt.Printf("workload     server (open-loop, load=%.2f, zipf=%.2f, %d requests/core, %d threads)\n",
			r.Config.Load, r.Config.ZipfS, r.Config.RequestsPerCore, r.Config.Threads)
		fmt.Printf("runtime      %s\n", *runtimeName)
		printTopology(*topology, r.Metrics)
		fmt.Printf("throughput   %.2f tx/µs\n", r.Throughput())
		fmt.Printf("duration     %.3f ms simulated\n", r.Millis)
		fmt.Printf("sojourn      p50 %.0f  p95 %.0f  p99 %.0f  p999 %.0f  max %d cycles\n",
			r.P50, r.P95, r.P99, r.P999, r.MaxSojourn)
		printStats(r.Stats.Commits, r.Stats.Serial, r.Stats.TotalAborts(), r.Stats.STMAborts)
		printBreakdown(r.Breakdown)
	default:
		fmt.Fprintf(os.Stderr, "asfsim: unknown workload %q\n", *workload)
		os.Exit(2)
	}
}

func printStats(commits, serial, aborts, stmAborts uint64) {
	fmt.Printf("commits      %d (%d serial-irrevocable)\n", commits, serial)
	fmt.Printf("aborts       %d (%d software)\n", aborts, stmAborts)
}

// printTopology reports the socket layout and its directory traffic when a
// multi-socket topology was requested.
func printTopology(topology string, m *metrics.Snapshot) {
	if topology == "" || m == nil {
		return
	}
	hops := uint64(0)
	if g, ok := m.Gauge("cache/xsock_hops"); ok {
		hops = g.Total
	}
	fmt.Printf("topology     %s (%d cross-socket hops)\n", topology, hops)
}

func printBreakdown(b sim.Breakdown) {
	total := b.Total()
	if total == 0 {
		return
	}
	fmt.Printf("cycles       %d total\n", total)
	for i := 0; i < sim.NumCategories; i++ {
		c := sim.Category(i)
		fmt.Printf("  %-16s %12d  (%5.1f%%)\n", c, b[c], float64(b[c])/float64(total)*100)
	}
}
