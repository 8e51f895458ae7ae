package tm

import "asfstack/internal/sim"

// Emitter is the transaction-lifecycle reporter every runtime embeds. It is
// the only code that writes the three observer streams:
//
//   - the sim trace (sim.TraceTx*), replayed by internal/trace into the
//     offline cycle breakdown and the Chrome export;
//   - the TxProfiler flight recorder (internal/txprof, cmd/tmprof);
//   - the CommitHook (the litmus suite's serialization order).
//
// A runtime reports four lifecycle points: Begin (once per transaction),
// Attempt plus its Commit or Abort (once per attempt), and Fallback (a
// path switch). Separately, CommitPoint runs the hook at the moment the
// transaction takes effect — before any serial token, seqlock or solo latch
// that makes it take effect is released, so hook order is commit order.
//
// Reporting charges no simulated cycles (the paper's no-interference
// tracing). With no recorder and no hook installed, each point costs one
// nil check per stream beyond the trace's own enabled check.
type Emitter struct {
	hook CommitHook
	prof TxProfiler
}

// SetCommitHook implements HookableRuntime.
func (e *Emitter) SetCommitHook(h CommitHook) { e.hook = h }

// SetProfiler implements ProfilableRuntime.
func (e *Emitter) SetProfiler(p TxProfiler) { e.prof = p }

func (e *Emitter) record(c *sim.CPU, ev TxEvent) {
	ev.Time = c.Now()
	e.prof.Record(c.ID(), ev)
}

// Begin reports that a transaction started on path (its first attempt).
func (e *Emitter) Begin(c *sim.CPU, path TxPath) {
	if e.prof != nil {
		e.record(c, TxEvent{Kind: TxEvBegin, Path: path, Aborter: sim.NoCore, Addr: sim.NoAddr})
	}
}

// Fallback reports that the transaction switches to path.
func (e *Emitter) Fallback(c *sim.CPU, path TxPath) {
	c.Trace(sim.TraceTxFallback, uint64(path))
	if e.prof != nil {
		e.record(c, TxEvent{Kind: TxEvFallback, Path: path, Aborter: sim.NoCore, Addr: sim.NoAddr})
	}
}

// CommitPoint runs the commit hook for a transaction that has just taken
// effect, under the global turn (see CommitHook). serial reports
// serial-irrevocable mode.
func (e *Emitter) CommitPoint(c *sim.CPU, serial bool) {
	if e.hook != nil {
		c.SpecOp(0, func() { e.hook(c.ID(), serial) })
	}
}

// Attempt opens one attempt's frame: the core enters the start/commit
// category, its cycle counters are snapshotted (so an abort can move the
// attempt's cycles to the abort bucket) and the trace marks the begin.
// The attempt must end in Commit, Abort or Unwind.
func (e *Emitter) Attempt(c *sim.CPU) Attempt {
	c.SetCategory(sim.CatTxStartCommit)
	a := Attempt{e: e, c: c, snap: c.Counters(), framed: true}
	c.Trace(sim.TraceTxBegin, 0)
	a.start = c.Now()
	return a
}

// Inline opens an attempt that leaves the core's cycle accounting alone,
// for the sequential baseline: its bodies run uninstrumented, in the
// caller's category, and never abort.
func (e *Emitter) Inline(c *sim.CPU) Attempt {
	c.Trace(sim.TraceTxBegin, 0)
	return Attempt{e: e, c: c, start: c.Now()}
}

// Attempt is one open attempt frame (see Emitter.Attempt). It lives on the
// runtime's stack; opening and closing one never allocates.
type Attempt struct {
	e      *Emitter
	c      *sim.CPU
	snap   sim.Breakdown
	start  uint64
	framed bool // opened by Attempt, not Inline
}

// Commit closes a committed attempt on path, with its final read/write-set
// sizes, and returns a framed attempt's core to the non-instrumented
// category.
func (a *Attempt) Commit(path TxPath, reads, writes int) {
	c := a.c
	c.Trace(sim.TraceTxCommit, 0)
	if a.e.prof != nil {
		a.e.record(c, TxEvent{Kind: TxEvCommit, Path: path, Aborter: sim.NoCore, Addr: sim.NoAddr,
			Reads: uint32(reads), Writes: uint32(writes), Cycles: c.Now() - a.start})
	}
	if a.framed {
		c.SetCategory(sim.CatNonInstr)
	}
}

// Abort closes an aborted attempt. ev carries the path, the cause (Cause
// and Code, or STM for a software conflict), the causality edge and the
// set sizes; Abort fills in Kind, Time and the wasted Cycles. The core is
// left in the abort category for the runtime's recovery (back-off,
// refill, waiting out a token).
func (a *Attempt) Abort(ev TxEvent) {
	a.rollback(ev.Cause)
	if a.e.prof != nil {
		ev.Kind, ev.Cycles = TxEvAbort, a.c.Now()-a.start
		a.e.record(a.c, ev)
	}
}

// Unwind closes an attempt that rolled back without a recorded abort — a
// restart the runtime requested itself, which the recorder sees as the
// fallback that follows. The trace still closes the attempt.
func (a *Attempt) Unwind() { a.rollback(sim.AbortNone) }

func (a *Attempt) rollback(cause sim.AbortReason) {
	a.c.MoveToAbort(a.snap)
	a.c.Trace(sim.TraceTxAbort, uint64(cause))
	a.c.SetCategory(sim.CatAbort)
}
