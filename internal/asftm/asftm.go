// Package asftm is ASF-TM: the TM runtime of the paper (§3.2), implementing
// the TM ABI of package tm on top of ASF speculative regions.
//
// The runtime provides what the ABI requires but ASF does not:
//
//   - a begin function combining a software setjmp (ASF restores only the
//     instruction and stack pointers) with SPECULATE, and restart emulation
//     by "returning from the begin function again";
//   - contention management: exponential back-off on contention aborts, and
//     a switch to the software fallback after repeated failures;
//   - the serial-irrevocable fallback itself: a global token acquired with
//     a plain CAS and *monitored* by every hardware transaction via a
//     speculative read at begin — acquiring the token instantly aborts all
//     in-flight regions, and new regions see it held and wait;
//   - an abort-robust transactional allocator (thread-private pools; pool
//     refills abort with a software code and run outside the region).
//
// Transactions that exceed ASF's capacity or fail too many times restart in
// serial-irrevocable mode, as in the paper.
package asftm

import (
	"asfstack/internal/asf"
	"asfstack/internal/mem"
	"asfstack/internal/metrics"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// Config tunes the runtime's contention management and ABI costs.
type Config struct {
	// MaxHWAttempts is how many hardware attempts are made before a
	// transaction restarts in serial-irrevocable mode. Capacity
	// overflows switch immediately.
	MaxHWAttempts int
	// BackoffMax caps the exponential back-off (cycles; see tm.Backoff).
	BackoffMax uint64

	// ABI software costs, in instructions. BeginInstr covers the setjmp
	// register checkpoint, descriptor setup and mode dispatch; the paper
	// measures this added code making ASF's start/commit cost comparable
	// to the STM's (Table 1).
	BeginInstr   int
	CommitInstr  int
	BarrierInstr int // per Load/Store around the inlined LOCK MOV
}

// DefaultConfig returns the configuration used in the evaluation.
func DefaultConfig() Config {
	return Config{
		MaxHWAttempts: 16,
		BackoffMax:    1 << 14,
		BeginInstr:    60,
		CommitInstr:   16,
		BarrierInstr:  2,
	}
}

// Runtime implements tm.Runtime on ASF.
type Runtime struct {
	tm.Emitter // lifecycle reporting; provides SetCommitHook/SetProfiler

	sys  *asf.System
	heap *tm.Heap
	cfg  Config

	serial tm.SerialToken // global token, alone on its cache line

	stats []tm.Stats
	txs   []hwTx // per-core transaction descriptors (reused)
	depth []int  // per-core flat-nesting depth of Atomic calls

	met rtMetrics
}

// rtMetrics holds the runtime's metric handles (zero-value inert).
type rtMetrics struct {
	// hwAttempts is the number of hardware attempts each transaction made
	// before completing (committing in hardware or going serial).
	hwAttempts metrics.Histogram
	// backoff records each contention back-off delay, in cycles.
	backoff metrics.Histogram
}

// SetMetrics registers the runtime's instruments with reg. Must be called
// before the first transaction (stack construction does this).
func (r *Runtime) SetMetrics(reg *metrics.Registry) {
	r.met.hwAttempts = reg.Histogram("asftm/hw_attempts", metrics.PowersOfTwo(6))
	r.met.backoff = reg.Histogram("asftm/backoff_cycles", metrics.PowersOfTwo(16))
	r.serial.Entries = reg.Counter("asftm/serial_entries")
	r.serial.Cycles = reg.Counter("asftm/serial_cycles")
}

// New builds the runtime for an installed ASF system. layout provides the
// runtime's metadata region (the serial token).
func New(sys *asf.System, heap *tm.Heap, m *sim.Machine, layout *mem.Layout) *Runtime {
	base, _ := layout.Region(mem.LineSize)
	m.Mem.Prefault(base, mem.LineSize)
	cores := m.Config().Cores
	r := &Runtime{
		sys:    sys,
		heap:   heap,
		cfg:    DefaultConfig(),
		serial: tm.SerialToken{Addr: base},
		stats:  make([]tm.Stats, cores),
		txs:    make([]hwTx, cores),
		depth:  make([]int, cores),
	}
	for i := range r.txs {
		r.txs[i] = hwTx{r: r}
	}
	return r
}

// SetConfig replaces the contention-management configuration.
func (r *Runtime) SetConfig(cfg Config) { r.cfg = cfg }

// Name returns the ASF variant label (the figures key runs by it).
func (r *Runtime) Name() string { return r.sys.Variant().Name }

// Stats implements tm.Runtime.
func (r *Runtime) Stats(core int) tm.Stats { return r.stats[core] }

// ResetStats implements tm.Runtime.
func (r *Runtime) ResetStats() {
	for i := range r.stats {
		r.stats[i] = tm.Stats{}
		r.sys.Unit(i).ResetStats()
	}
}

// Atomic implements tm.Runtime: the _ITM_beginTransaction /
// _ITM_commitTransaction pair with all retry logic in between.
func (r *Runtime) Atomic(c *sim.CPU, body func(tx tm.Tx)) {
	id := c.ID()
	if r.depth[id] > 0 {
		// Flat nesting at the language level: run inside the
		// enclosing transaction.
		r.depth[id]++
		body(&r.txs[id])
		r.depth[id]--
		return
	}
	r.depth[id] = 1
	defer func() { r.depth[id] = 0 }()

	st := &r.stats[id]
	u := r.sys.Unit(id)
	t := &r.txs[id]
	t.c, t.u, t.serial = c, u, false

	r.Begin(c, tm.PathHW)
	attempts := 0
	for {
		a := r.Attempt(c)
		c.Exec(r.cfg.BeginInstr)

		reason, code := u.Region(func() {
			// The global serial token is the first speculative
			// read of every region: if a serial transaction holds
			// it we must not proceed, and if one acquires it later
			// the CAS write aborts us instantly.
			if u.Load(r.serial.Addr) != 0 {
				u.Abort(tm.CodeSerialRunning)
			}
			c.SetCategory(sim.CatTxApp)
			body(t)
			c.SetCategory(sim.CatTxStartCommit)
			c.Exec(r.cfg.CommitInstr)
		})

		read, write := u.LastSetSizes()
		if reason == sim.AbortNone {
			st.Commits++
			r.met.hwAttempts.Observe(id, uint64(attempts+1))
			r.CommitPoint(c, false)
			a.Commit(tm.PathHW, int(read), int(write))
			return
		}

		// The attempt's cycles are wasted work: they move to the
		// abort/restart bucket, like the paper's trace annotation.
		by, addr := u.LastAbortEdge()
		a.Abort(tm.TxEvent{Path: tm.PathHW, Cause: reason, Code: code, Aborter: by, Addr: addr,
			Reads: uint32(read), Writes: uint32(write)})
		attempts++

		serial := false
		switch reason {
		case sim.AbortCapacity:
			// No point retrying: the working set does not fit.
			st.Aborts[sim.AbortCapacity]++
			serial = true
		case sim.AbortExplicit:
			switch code {
			case tm.CodeMallocRefill:
				st.MallocAborts++
				r.heap.Refill(c, r.heap.ChunkSize)
			case tm.CodeSerialRunning:
				st.Aborts[sim.AbortContention]++
				r.serial.Wait(c)
			case tm.CodeSerialRequest:
				st.Aborts[sim.AbortExplicit]++
				serial = true
			default:
				st.Aborts[sim.AbortExplicit]++
			}
		case sim.AbortContention:
			st.Aborts[sim.AbortContention]++
			tm.Backoff(c, attempts, r.cfg.BackoffMax, r.met.backoff)
		default:
			// Page fault (now handled), interrupt, syscall:
			// retry immediately.
			st.Aborts[reason]++
		}

		if serial || attempts >= r.cfg.MaxHWAttempts {
			r.met.hwAttempts.Observe(id, uint64(attempts))
			r.Fallback(c, tm.PathSerial)
			r.runSerial(c, t, body)
			return
		}
	}
}

// runSerial executes body in serial-irrevocable mode: the global token is
// taken with a plain CAS (aborting every in-flight hardware region that
// monitors it), the body runs uninstrumented, and the token is released.
func (r *Runtime) runSerial(c *sim.CPU, t *hwTx, body func(tx tm.Tx)) {
	a := r.Attempt(c)
	held := r.serial.Acquire(c)
	t.serial = true
	c.SetCategory(sim.CatTxApp)
	body(t)
	c.SetCategory(sim.CatTxStartCommit)
	r.CommitPoint(c, true) // before the release: the token is the commit point
	r.serial.Release(c, held)
	t.serial = false
	st := &r.stats[c.ID()]
	st.Commits++
	st.Serial++
	a.Commit(tm.PathSerial, 0, 0)
}

// hwTx implements tm.Tx for both the hardware and the serial code path —
// the two code paths the compiler generates, dispatched by the begin
// function's return value (§3.1).
type hwTx struct {
	r      *Runtime
	c      *sim.CPU
	u      *asf.Unit
	serial bool
}

// Load implements tm.Tx.
func (t *hwTx) Load(a mem.Addr) mem.Word {
	prev := t.c.SetCategory(sim.CatTxLoadStore)
	var v mem.Word
	if t.serial {
		t.c.Exec(2) // serial-mode ABI dispatch
		v = t.c.Load(a)
	} else {
		t.c.Exec(t.r.cfg.BarrierInstr)
		v = t.u.Load(a)
	}
	t.c.SetCategory(prev)
	return v
}

// Store implements tm.Tx.
func (t *hwTx) Store(a mem.Addr, v mem.Word) {
	prev := t.c.SetCategory(sim.CatTxLoadStore)
	if t.serial {
		t.c.Exec(2)
		t.c.Store(a, v)
	} else {
		t.c.Exec(t.r.cfg.BarrierInstr)
		t.u.Store(a, v)
	}
	t.c.SetCategory(prev)
}

// Alloc implements tm.Tx: pool allocation that aborts to refill.
func (t *hwTx) Alloc(size uint64) mem.Addr {
	for {
		a, ok := t.r.heap.AllocFast(t.c, size, mem.WordSize)
		if ok {
			return a
		}
		if t.serial {
			t.r.heap.Refill(t.c, size)
			continue
		}
		// Unsafe to call the real allocator speculatively: abort,
		// refill outside the region, retry (§3.3).
		t.u.Abort(tm.CodeMallocRefill)
	}
}

// AllocLines implements tm.Tx.
func (t *hwTx) AllocLines(n int) mem.Addr {
	for {
		a, ok := t.r.heap.AllocFast(t.c, uint64(n)*mem.LineSize, mem.LineSize)
		if ok {
			return a
		}
		if t.serial {
			t.r.heap.Refill(t.c, uint64(n)*mem.LineSize)
			continue
		}
		t.u.Abort(tm.CodeMallocRefill)
	}
}

// Free implements tm.Tx.
func (t *hwTx) Free(a mem.Addr) { t.r.heap.Free(t.c, a) }

// CPU implements tm.Tx.
func (t *hwTx) CPU() *sim.CPU { return t.c }

// Irrevocable implements tm.Tx.
func (t *hwTx) Irrevocable() bool { return t.serial }

// BecomeIrrevocable implements tm.Irrevocably: a hardware transaction
// aborts with a software code and restarts directly in serial mode; a
// serial transaction already is irrevocable.
func (t *hwTx) BecomeIrrevocable() {
	if !t.serial {
		t.u.Abort(tm.CodeSerialRequest)
	}
}

// Release exposes ASF early release to expert callers (the linked-list
// workload's hand-over-hand traversal, Fig. 8). It is a no-op in serial
// mode. Callers must type-assert the tm.Tx to *asftm.Tx — early release is
// an ASF-specific extension, not part of the portable ABI.
func (t *hwTx) Release(a mem.Addr) {
	if !t.serial {
		t.u.Release(a)
	}
}

// Tx is the exported name of the runtime's transaction descriptor, for
// ASF-specific extensions such as Release.
type Tx = hwTx
