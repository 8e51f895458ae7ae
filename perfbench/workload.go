package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"asfstack"
	"asfstack/internal/metrics"
	"asfstack/internal/server"
	"asfstack/internal/sim"
	"asfstack/internal/stamp"
	"asfstack/internal/tm"
	"asfstack/internal/txlib"
)

// A workload is one configuration of the stack the benchmark runs. rep
// simulates it once from a fresh stack and checks its output.
type workload struct {
	name  string
	why   string
	cores int
	// sims is how many simulations, each from its own seed, an untraced
	// run pools; tracedSims, how many of those a traced run repeats. One
	// simulation's tail latency and throughput depend on its seed too much
	// to compare two commits by.
	sims, tracedSims int
	rep              func(seed int64, h hooks) (outcome, error)
}

// seeds returns the simulation seeds of a run with the given seed.
func (w workload) seeds(seed int64) []int64 {
	s := make([]int64, w.sims)
	for i := range s {
		s[i] = seed*int64(w.sims) + int64(i)
	}
	return s
}

// hooks are the traced run's instruments; the zero value is none.
type hooks struct {
	fold    *spanFold        // records Atomic and barrier spans
	measure func(start bool) // brackets the measured phase (CPU profile)
}

func (h hooks) bracket(start bool) {
	if h.measure != nil {
		h.measure(start)
	}
}

// outcome is one simulation's result. Host times are seconds; the simulated fields
// are a pure function of the workload and seed.
type outcome struct {
	setupS, newS, populateS, runS float64
	refS                          float64 // one reference pass around the simulation (calibrate.go)
	allocBytes, runAllocBytes     uint64

	sim simResult
}

// simResult is everything the model computed in the measured phase of one
// simulation. Two simulations of one workload and seed must produce
// identical simResults.
type simResult struct {
	cycles uint64
	stats  tm.Stats
	snap   *metrics.Snapshot
	// lat is the latency histogram in cycles: each Atomic call to its
	// commit (closed loop), or each request's arrival to its commit (the
	// open-loop server).
	lat metrics.HistSnap
}

func (r simResult) memops() uint64 {
	return gaugeTotal(r.snap, "cache/loads") + gaugeTotal(r.snap, "cache/stores")
}

func sameSim(a, b simResult) bool {
	return a.cycles == b.cycles && a.stats == b.stats && reflect.DeepEqual(a.snap.Sim, b.snap.Sim)
}

func gaugeTotal(s *metrics.Snapshot, name string) uint64 {
	g, _ := s.Gauge(name)
	return g.Total
}

func counterTotal(s *metrics.Snapshot, name string) uint64 {
	c, _ := s.Counter(name)
	return c.Total
}

var workloads = []workload{
	{
		name:  "list-asf-8c",
		why:   "Fig. 5 linked list, 8 cores, LLB-256, 20% updates, closed loop, 256 keys: L1-hit bound with long ASF read sets, so scheduler hand-off and ASF tracking dominate",
		cores: listThreads, sims: 16, tracedSims: 4,
		rep: listRep,
	},
	{
		name:  "genome-stm-1c",
		why:   "STAMP genome on STM at 1 core (Table 1 setting): no hand-offs, no ASF, stores about equal loads, largest footprint; STM barriers and the fill path dominate",
		cores: 1, sims: 50, tracedSims: 10,
		rep: genomeRep,
	},
	{
		name:  "server-adaptive-2x8",
		why:   "open-loop reservation server, 2x8 sockets, Adaptive-256, Zipf 1.2, bursty arrivals at load 0.7: cross-socket coherence, conflict aborts and runtime switching",
		cores: 16, sims: 48, tracedSims: 12,
		rep: serverRep,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// machine returns the Barcelona config with the seed set directly, so that
// seed 0 is a seed of its own rather than "the default".
func machine(cores int, seed int64) *sim.Config {
	mc := sim.Barcelona(cores)
	mc.Seed = seed
	return &mc
}

func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// stackRep runs the parts every closed-loop workload shares: build the
// stack with the latency-recording runtime installed, populate it, run the
// measured phase, snapshot. It returns the stack for output checks.
func stackRep(h hooks, opts asfstack.Options, threads int,
	populate func(s *asfstack.Stack, tx tm.Tx), body func(s *asfstack.Stack, c *sim.CPU)) (*asfstack.Stack, outcome) {
	var o outcome
	a0 := allocated()
	t0 := time.Now()
	s := asfstack.New(opts)
	s.RT = newFwdRT(s, threads, h.fold)
	t1 := time.Now()
	s.Setup(func(tx tm.Tx) { populate(s, tx) })
	start := s.BeginMeasured()
	t2 := time.Now()
	a1 := allocated()

	h.bracket(true)
	end := s.Parallel(threads, func(c *sim.CPU) { body(s, c) })
	t3 := time.Now()
	h.bracket(false)
	a2 := allocated()

	o.newS = t1.Sub(t0).Seconds()
	o.populateS = t2.Sub(t1).Seconds()
	o.setupS = t2.Sub(t0).Seconds()
	o.runS = t3.Sub(t2).Seconds()
	o.allocBytes = a2 - a0
	o.runAllocBytes = a2 - a1

	o.sim.cycles = end - start
	o.sim.stats = s.TotalStats()
	o.sim.snap = s.MetricsSnapshot()
	o.sim.lat, _ = o.sim.snap.Histogram(latencyHist)
	return s, o
}

const (
	listThreads = 8
	// listRange is the key range. Fig. 5's 512 puts the list's 256 nodes
	// right at the LLB-256 capacity, so how far a seed's list drifts past
	// it decides how often transactions go serial: one simulation's p99
	// varied by 0.56 of its median between seeds, and 0.18 pooled over 16.
	// With 256 keys read sets fit and the pooled p99 varies by 1%.
	listRange   = 256
	listUpdates = 20 // percent: half inserts, half removes
	listOps     = 1500
)

func listRep(seed int64, h hooks) (outcome, error) {
	var l *txlib.List
	inserted := make([]int, listThreads) // per core, successful ops
	removed := make([]int, listThreads)
	s, o := stackRep(h, asfstack.Options{Cores: listThreads, Runtime: "LLB-256", Machine: machine(listThreads, seed)},
		listThreads,
		func(s *asfstack.Stack, tx tm.Tx) {
			l = txlib.NewList(tx)
			rng := tx.CPU().Rand()
			for n := 0; n < listRange/2; {
				if l.Insert(tx, uint64(rng.Int63n(listRange))) {
					n++
				}
			}
		},
		func(s *asfstack.Stack, c *sim.CPU) {
			rng := c.Rand()
			for i := 0; i < listOps; i++ {
				k := uint64(rng.Int63n(listRange))
				var ok bool
				switch r := rng.Intn(100); {
				case r < listUpdates/2:
					s.Atomic(c, func(tx tm.Tx) { ok = l.Insert(tx, k) })
					if ok {
						inserted[c.ID()]++
					}
				case r < listUpdates:
					s.Atomic(c, func(tx tm.Tx) { ok = l.Remove(tx, k) })
					if ok {
						removed[c.ID()]++
					}
				default:
					s.Atomic(c, func(tx tm.Tx) { l.Contains(tx, k) })
				}
			}
		})

	if want := uint64(listThreads * listOps); o.sim.stats.Commits != want {
		return o, fmt.Errorf("list: %d commits, want threads × ops = %d", o.sim.stats.Commits, want)
	}
	var keys []uint64
	s.Setup(func(tx tm.Tx) { keys = l.Keys(tx) })
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return o, fmt.Errorf("list: keys not strictly increasing at %d: %d then %d", i, keys[i-1], keys[i])
		}
	}
	want := listRange / 2
	for i := range inserted {
		want += inserted[i] - removed[i]
	}
	if len(keys) != want {
		return o, fmt.Errorf("list: size %d, want initial + inserts - removes = %d", len(keys), want)
	}
	return o, nil
}

const genomeScale = 4

func genomeRep(seed int64, h hooks) (outcome, error) {
	app, err := stamp.New("genome", 1, genomeScale)
	if err != nil {
		return outcome{}, err
	}
	s, o := stackRep(h, asfstack.Options{Cores: 1, Runtime: "STM", Machine: machine(1, seed)}, 1,
		func(s *asfstack.Stack, tx tm.Tx) { app.Setup(s, tx, 1) },
		func(s *asfstack.Stack, c *sim.CPU) { app.Thread(s, c, c.ID(), 1) })
	var verr error
	s.Setup(func(tx tm.Tx) { verr = app.Validate(tx) })
	if verr != nil {
		return o, fmt.Errorf("genome: validation: %w", verr)
	}
	return o, nil
}

const (
	serverTopology = "2x8"
	serverRuntime  = "Adaptive-256"
	// serverRequests is per core. The p999 of a run depends mostly on
	// which bursts its seeds drew, so a run pools many short simulations:
	// over ten runs, 24 simulations of 4000 requests gave a pooled p999
	// spread (interquartile range / median) of 0.15; 48 of 2000 gave 0.07
	// and 0.11 on two sets of ten.
	serverRequests = 2000
	// serverLoad is the offered load per core. At 0.9 one simulation's
	// p99 varied 2x between seeds (interquartile range / median 1.0, still
	// 0.19 pooled over 28 simulations): the tail measured which bursts a
	// seed drew, not the stack.
	serverLoad = 0.7
)

func serverConfig(seed int64, requests int) server.Config {
	return server.Config{Runtime: serverRuntime, Topology: serverTopology,
		RequestsPerCore: requests, Load: serverLoad, ZipfS: 1.2, Seed: seed, SeedSet: true}
}

// serverRep times server.Run, which builds, populates, runs and validates
// in one call. Set-up time is that of the same configuration with one
// request per core; the measured phase is the difference. asfstack.New is
// timed on its own with the server's options for the set-up split.
func serverRep(seed int64, h hooks) (outcome, error) {
	var o outcome
	t0 := time.Now()
	asfstack.New(asfstack.Options{Runtime: serverRuntime, Topology: serverTopology, Machine: machine(16, seed)})
	t1 := time.Now()
	if _, err := server.Run(serverConfig(seed, 1)); err != nil {
		return o, fmt.Errorf("server (set-up probe): %w", err)
	}
	t2 := time.Now()
	runtime.GC()

	a0 := allocated()
	t3 := time.Now()
	h.bracket(true)
	res, err := server.Run(serverConfig(seed, serverRequests))
	t4 := time.Now()
	h.bracket(false)
	a1 := allocated()
	if err != nil {
		return o, fmt.Errorf("server: %w", err)
	}
	o.newS = t1.Sub(t0).Seconds()
	o.setupS = t2.Sub(t1).Seconds()
	o.populateS = o.setupS - o.newS
	o.runS = t4.Sub(t3).Seconds() - o.setupS
	o.allocBytes = a1 - a0
	o.runAllocBytes = o.allocBytes

	o.sim = simResult{cycles: res.Cycles, stats: res.Stats, snap: res.Metrics}
	o.sim.lat, _ = res.Metrics.Histogram("server/sojourn_cyc")
	if o.sim.lat.Count != res.Requests {
		return o, fmt.Errorf("server: %d sojourn samples for %d requests", o.sim.lat.Count, res.Requests)
	}
	return o, nil
}
