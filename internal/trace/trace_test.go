package trace_test

import (
	"testing"

	"asfstack"
	"asfstack/internal/mem"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
	"asfstack/internal/trace"
)

// runTraced executes a contended counter workload with tracing enabled and
// returns (offline breakdown, online breakdown, commits).
func runTraced(t *testing.T, rt string, threads int) (off, on sim.Breakdown, commits uint64) {
	t.Helper()
	s := asfstack.New(asfstack.Options{Cores: threads, Runtime: rt})
	base := s.AllocShared(8 * mem.LineSize)
	start := s.BeginMeasured()
	s.M.EnableTrace()
	s.M.TraceEvents() // drop anything recorded before the measured phase
	s.Parallel(threads, func(c *sim.CPU) {
		rng := c.Rand()
		for i := 0; i < 200; i++ {
			a := base + mem.Addr(rng.Intn(8)*mem.LineSize)
			s.Atomic(c, func(tx tm.Tx) {
				tx.CPU().Exec(60)
				tx.Store(a, tx.Load(a)+1)
			})
		}
	})
	ends := make([]uint64, threads)
	for i := 0; i < threads; i++ {
		ends[i] = s.M.CPU(i).Now()
		on = on.Add(s.M.CPU(i).Counters())
	}
	cbs, err := trace.Analyze(s.M.TraceEvents(), start, ends)
	if err != nil {
		t.Fatal(err)
	}
	off = trace.Total(cbs)
	for _, cb := range cbs {
		commits += cb.Commits
	}
	return off, on, commits
}

// TestOfflineMatchesOnline: the paper's offline trace analysis must agree
// with the online per-category counters — the same breakdown computed two
// independent ways — and count every commit, on every runtime (LLB-256
// also on one core; the sequential baseline only runs on one).
func TestOfflineMatchesOnline(t *testing.T) {
	type cell struct {
		rt      string
		threads int
	}
	cells := []cell{{"LLB-256", 1}}
	for _, rt := range asfstack.RuntimeNames {
		threads := 4
		if rt == "Sequential" {
			threads = 1
		}
		cells = append(cells, cell{rt, threads})
	}
	for _, cfg := range cells {
		t.Run(cfg.rt, func(t *testing.T) {
			off, on, commits := runTraced(t, cfg.rt, cfg.threads)
			if commits != uint64(cfg.threads*200) {
				t.Fatalf("commits = %d", commits)
			}
			for i := 0; i < sim.NumCategories; i++ {
				if off[i] != on[i] {
					t.Errorf("%v: offline %d != online %d",
						sim.Category(i), off[i], on[i])
				}
			}
		})
	}
}

// TestAnalyzeKeepsIdleCores: a core that recorded no events still ran the
// whole window — spinning or executing uninstrumented code — so it must
// appear in the result with its full window charged to non-instr.
// Regression: Analyze used to build its result from the event stream alone
// and silently dropped idle cores, understating total cycles.
func TestAnalyzeKeepsIdleCores(t *testing.T) {
	evs := []sim.TraceEvent{
		{Core: 1, Time: 10, Kind: sim.TraceCategory, Arg: uint64(sim.CatTxApp)},
	}
	cbs, err := trace.Analyze(evs, 0, []uint64{80, 100, 120})
	if err != nil {
		t.Fatal(err)
	}
	if len(cbs) != 3 {
		t.Fatalf("got %d cores, want 3 (idle cores dropped)", len(cbs))
	}
	for i, cb := range cbs {
		if cb.Core != i {
			t.Fatalf("cbs[%d].Core = %d, want %d", i, cb.Core, i)
		}
	}
	if got := cbs[0].Breakdown[sim.CatNonInstr]; got != 80 {
		t.Errorf("idle core 0: non-instr = %d, want the full 80-cycle window", got)
	}
	if got := cbs[2].Breakdown[sim.CatNonInstr]; got != 120 {
		t.Errorf("idle core 2: non-instr = %d, want the full 120-cycle window", got)
	}
	// The active core is charged as before: [0,10) non-instr, [10,100) tx-app.
	if got := cbs[1].Breakdown[sim.CatNonInstr]; got != 10 {
		t.Errorf("core 1: non-instr = %d, want 10", got)
	}
	if got := cbs[1].Breakdown[sim.CatTxApp]; got != 90 {
		t.Errorf("core 1: tx-app = %d, want 90", got)
	}
}

// TestAnalyzeRejectsUnknownCore: an event from a core with no end time is
// still an error.
func TestAnalyzeRejectsUnknownCore(t *testing.T) {
	evs := []sim.TraceEvent{{Core: 5, Time: 10, Kind: sim.TraceTxBegin}}
	if _, err := trace.Analyze(evs, 0, []uint64{100}); err == nil {
		t.Fatal("event from core without an end time accepted")
	}
}

// TestAnalyzeRejectsBackwardsTime: malformed traces surface as errors.
func TestAnalyzeRejectsBackwardsTime(t *testing.T) {
	evs := []sim.TraceEvent{
		{Core: 0, Time: 100, Kind: sim.TraceCategory, Arg: uint64(sim.CatTxApp)},
		{Core: 0, Time: 50, Kind: sim.TraceCategory, Arg: uint64(sim.CatNonInstr)},
	}
	if _, err := trace.Analyze(evs, 0, []uint64{200}); err == nil {
		t.Fatal("backwards time accepted")
	}
}

// TestAnalyzeCountsOutcomes: synthetic trace with one commit and one abort.
func TestAnalyzeCountsOutcomes(t *testing.T) {
	evs := []sim.TraceEvent{
		{Core: 0, Time: 10, Kind: sim.TraceTxBegin},
		{Core: 0, Time: 10, Kind: sim.TraceCategory, Arg: uint64(sim.CatTxApp)},
		{Core: 0, Time: 50, Kind: sim.TraceTxAbort},
		{Core: 0, Time: 50, Kind: sim.TraceCategory, Arg: uint64(sim.CatAbort)},
		{Core: 0, Time: 60, Kind: sim.TraceCategory, Arg: uint64(sim.CatTxApp)},
		{Core: 0, Time: 60, Kind: sim.TraceTxBegin},
		{Core: 0, Time: 90, Kind: sim.TraceTxCommit},
		{Core: 0, Time: 90, Kind: sim.TraceCategory, Arg: uint64(sim.CatNonInstr)},
	}
	cbs, err := trace.Analyze(evs, 0, []uint64{100})
	if err != nil {
		t.Fatal(err)
	}
	cb := cbs[0]
	if cb.Commits != 1 || cb.Aborts != 1 {
		t.Fatalf("outcomes: %d commits, %d aborts", cb.Commits, cb.Aborts)
	}
	// [10,50) aborted attempt -> CatAbort (40), plus [50,60) back-off 10.
	if cb.Breakdown[sim.CatAbort] != 50 {
		t.Fatalf("CatAbort = %d, want 50", cb.Breakdown[sim.CatAbort])
	}
	// [60,90) committed attempt in CatTxApp.
	if cb.Breakdown[sim.CatTxApp] != 30 {
		t.Fatalf("CatTxApp = %d, want 30", cb.Breakdown[sim.CatTxApp])
	}
	// [0,10) non-instr + [90,100) non-instr.
	if cb.Breakdown[sim.CatNonInstr] != 20 {
		t.Fatalf("CatNonInstr = %d, want 20", cb.Breakdown[sim.CatNonInstr])
	}
}
