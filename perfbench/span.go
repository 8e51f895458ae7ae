package main

import (
	"time"

	"asfstack"
	"asfstack/internal/mem"
	"asfstack/internal/metrics"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanAtomic  spanKind = iota // tm.Runtime.Atomic, through fwdRT
	spanBarrier                 // tm.Tx.Load / tm.Tx.Store, through fwdTx
	numSpanKinds
)

// spanFold folds a stream of span begin/end events into per-kind self time
// and hand-off time, without keeping the events.
//
// Every simulated core runs on the one host thread that drives the machine,
// so events arrive in a single host-time order. The interval between two
// consecutive events belongs to whoever ran in it:
//   - both events from the same core: the innermost span that core has open
//     (its self time: the span's duration minus its nested spans), or
//     outside when the core has none open;
//   - events from different cores: the scheduler hand-off between them.
type spanFold struct {
	base    time.Time
	started bool
	last    int64 // ns since base of the previous event
	core    int   // core of the previous event

	stacks [][]spanKind // open spans per core, innermost last

	self     [numSpanKinds]int64 // ns
	calls    [numSpanKinds]uint64
	outside  int64 // ns on one core with no span open
	handoff  int64 // ns between events of different cores
	switches uint64
}

func newSpanFold(cores int) *spanFold {
	return &spanFold{base: time.Now(), stacks: make([][]spanKind, cores)}
}

// event records a span boundary on core at t ns since base: the begin of
// a span of kind k, or the end of the core's innermost open span.
func (f *spanFold) event(core int, t int64, k spanKind, begin bool) {
	if f.started {
		d := t - f.last
		switch st := f.stacks[core]; {
		case core != f.core:
			f.handoff += d
			f.switches++
		case len(st) > 0:
			f.self[st[len(st)-1]] += d
		default:
			f.outside += d
		}
	}
	f.started, f.last, f.core = true, t, core
	if begin {
		f.stacks[core] = append(f.stacks[core], k)
		f.calls[k]++
	} else if st := f.stacks[core]; len(st) > 0 {
		f.stacks[core] = st[:len(st)-1]
	}
}

func (f *spanFold) now() int64 { return int64(time.Since(f.base)) }

func (f *spanFold) begin(core int, k spanKind) { f.event(core, f.now(), k, true) }
func (f *spanFold) end(core int)               { f.event(core, f.now(), 0, false) }

// fwdRT forwards tm.Runtime to the stack's runtime. It always records each
// Atomic call's simulated latency (call to commit, in cycles) in a
// histogram of the stack's registry; with a fold installed it also records
// Atomic and barrier spans. It only reads the core clock, so the simulation
// runs exactly as without it.
type fwdRT struct {
	inner tm.Runtime
	lat   metrics.Histogram
	fold  *spanFold // nil when untraced
	txs   []fwdTx   // per core, reused across attempts
}

// latencyHist names the closed-loop latency histogram.
const latencyHist = "perfbench/atomic_cyc"

func newFwdRT(s *asfstack.Stack, cores int, fold *spanFold) *fwdRT {
	r := &fwdRT{inner: s.RT, fold: fold,
		lat: s.Metrics.Histogram(latencyHist, metrics.PowersOfTwo(28))}
	if fold != nil {
		r.txs = make([]fwdTx, cores)
		for i := range r.txs {
			r.txs[i] = fwdTx{fold: fold, core: i}
		}
	}
	return r
}

func (r *fwdRT) Name() string            { return r.inner.Name() }
func (r *fwdRT) Stats(core int) tm.Stats { return r.inner.Stats(core) }
func (r *fwdRT) ResetStats()             { r.inner.ResetStats() }

func (r *fwdRT) Atomic(c *sim.CPU, body func(tx tm.Tx)) {
	id := c.ID()
	start := c.Now()
	if r.fold == nil {
		r.inner.Atomic(c, body)
	} else {
		tx := &r.txs[id]
		r.fold.begin(id, spanAtomic)
		r.inner.Atomic(c, func(inner tm.Tx) {
			tx.inner = inner
			body(tx)
		})
		r.fold.end(id)
	}
	r.lat.Observe(id, c.Now()-start)
}

// fwdTx forwards tm.Tx and records a barrier span around Load and Store.
// The deferred end also closes the span when an abort unwinds through it.
type fwdTx struct {
	inner tm.Tx
	fold  *spanFold
	core  int
}

func (t *fwdTx) Load(a mem.Addr) mem.Word {
	t.fold.begin(t.core, spanBarrier)
	defer t.fold.end(t.core)
	return t.inner.Load(a)
}

func (t *fwdTx) Store(a mem.Addr, v mem.Word) {
	t.fold.begin(t.core, spanBarrier)
	defer t.fold.end(t.core)
	t.inner.Store(a, v)
}

func (t *fwdTx) Alloc(size uint64) mem.Addr { return t.inner.Alloc(size) }
func (t *fwdTx) AllocLines(n int) mem.Addr  { return t.inner.AllocLines(n) }
func (t *fwdTx) Free(a mem.Addr)            { t.inner.Free(a) }
func (t *fwdTx) CPU() *sim.CPU              { return t.inner.CPU() }
func (t *fwdTx) Irrevocable() bool          { return t.inner.Irrevocable() }
