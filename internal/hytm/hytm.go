// Package hytm is the hybrid TM runtime: ASF hardware transactions plus a
// *concurrent* software fallback, replacing ASF-TM's serial-irrevocable
// token as the overflow path. It implements the same tm ABI as
// internal/asftm and internal/stm, so every workload runs on it unchanged.
//
// The design follows the NOrec-style hybrids (Dalessandro et al., Hybrid
// NOrec; Riegel et al.) adapted to this simulator's ASF model:
//
//   - a shared commit-sequence word (swSeq, a seqlock: odd = a software
//     writeback or a serial transaction is in flight). Every hardware
//     region's first speculative read subscribes to it, so a committing
//     software transaction aborts exactly the hardware transactions it
//     races with — and only during its (short) writeback window, not for
//     its whole duration as the serial token did;
//   - a hardware-commit counter (hwSeq, its own cache line) that hardware
//     *writer* transactions increment with their last speculative store.
//     Software transactions sample both words and re-validate their read
//     set by value whenever either moves (NOrec's value-based validation),
//     so an atomically-committed hardware write set can never tear a
//     software snapshot. The bump is elided while no software transaction
//     exists: a fallback-population count (swCount) shares the seqlock's
//     cache line — covered by the same subscription, so a software
//     transaction's arrival aborts (and thereby re-arms) the hardware
//     regions that decided to skip it — and hardware writers conflict on
//     hwSeq only while there is someone to notify;
//   - the software fallback: an LSA-style invisible-read descriptor with a
//     redo log. Reads are plain loads (the simulator's requester-wins
//     conflict detection gives strong isolation against in-flight hardware
//     writers); writes buffer in the redo log and publish at commit under
//     the seqlock, after value validation. Software transactions run
//     concurrently with each other and with hardware transactions;
//   - true serial-irrevocable mode survives only for the cases that need
//     it — malloc-unsafe operations and syscalls reached through
//     BecomeIrrevocable — implemented as a degenerate software commit that
//     holds the seqlock for the whole transaction.
//
// Mode selection: capacity overflows fall back to software immediately
// (the working set will never fit); contention retries in hardware with
// back-off up to MaxHWAttempts, then falls back to software; the software
// path escalates to serial only on an explicit irrevocability request or
// as a livelock safety valve after MaxSWAttempts.
package hytm

import (
	"asfstack/internal/asf"
	"asfstack/internal/mem"
	"asfstack/internal/metrics"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// Config tunes contention management and ABI costs for both paths.
type Config struct {
	// MaxHWAttempts is how many hardware attempts are made before a
	// transaction falls back to the concurrent software path. Capacity
	// overflows fall back immediately.
	MaxHWAttempts int
	// MaxSWAttempts is the livelock safety valve: software attempts before
	// the transaction escalates to serial-irrevocable mode. Software
	// conflicts are value-based and a failed validation means someone else
	// committed, so in practice this bound is never reached.
	MaxSWAttempts int
	// BackoffMax caps the exponential back-off (cycles; see tm.Backoff).
	BackoffMax uint64

	// ForceSW routes every transaction straight to the concurrent software
	// fallback, skipping the hardware attempts. Litmus conformance runs use
	// it to exercise the fallback's isolation behaviour directly — the
	// suite's transactions are far too small to overflow an LLB naturally.
	ForceSW bool

	// Hardware-path ABI costs, in instructions (as asftm.Config).
	BeginInstr   int
	CommitInstr  int
	BarrierInstr int

	// Software-path lengths, in instructions (beyond the memory traffic,
	// which is charged by the cache model). The redo-log write barrier is
	// cheaper than TinySTM's encounter-time locking (no CAS), the read
	// barrier pays the two seqlock sample loads instead of lock checks.
	SWBeginInstr, SWCommitInstr int
	SWReadInstr, SWWriteInstr   int
	SWValidateInstrPerEntry     int
	SWWritebackInstrPerEntry    int
}

// DefaultConfig returns the evaluation configuration.
func DefaultConfig() Config {
	return Config{
		MaxHWAttempts: 16,
		MaxSWAttempts: 1024,
		BackoffMax:    1 << 14,

		BeginInstr:   60,
		CommitInstr:  16,
		BarrierInstr: 2,

		SWBeginInstr:             50,
		SWCommitInstr:            30,
		SWReadInstr:              20,
		SWWriteInstr:             25,
		SWValidateInstrPerEntry:  4,
		SWWritebackInstrPerEntry: 4,
	}
}

// Runtime implements tm.Runtime as a hardware/software hybrid.
type Runtime struct {
	tm.Emitter // lifecycle reporting; provides SetCommitHook/SetProfiler

	sys  *asf.System
	heap *tm.Heap
	m    *sim.Machine
	cfg  Config
	name string

	swSeq   mem.Addr // commit-sequence seqlock
	swCount mem.Addr // live software-fallback transactions (same line as swSeq)
	hwSeq   mem.Addr // hardware-commit counter, alone on its cache line

	stats []tm.Stats
	txs   []hyTx
	depth []int // per-core flat-nesting depth of Atomic calls

	met rtMetrics
}

// rtMetrics holds the runtime's metric handles (zero-value inert).
type rtMetrics struct {
	// hwAttempts is the number of hardware attempts each transaction made
	// before resolving (committing in hardware or falling back).
	hwAttempts metrics.Histogram
	// swAttempts is the number of software attempts each fallback
	// transaction made before committing.
	swAttempts metrics.Histogram
	// backoff records each contention back-off delay, in cycles.
	backoff metrics.Histogram
	// hwCommits/swCommits split the commit count by path; serialEntries
	// counts entries into true serial-irrevocable mode.
	hwCommits metrics.Counter
	swCommits metrics.Counter
	// seqAborts counts hardware aborts induced by the commit-sequence
	// seqlock (waits at begin plus in-flight kills by software commits).
	seqAborts metrics.Counter
	// swCycles accumulates simulated cycles spent resident in the software
	// fallback (from fallback entry to commit or serial escalation);
	// serialCycles accumulates cycles the seqlock was held for serial mode.
	swCycles      metrics.Counter
	serialEntries metrics.Counter
	serialCycles  metrics.Counter
}

// SetMetrics registers the runtime's instruments with reg. Must be called
// before the first transaction (stack construction does this).
func (r *Runtime) SetMetrics(reg *metrics.Registry) {
	r.met.hwAttempts = reg.Histogram("hytm/hw_attempts", metrics.PowersOfTwo(6))
	r.met.swAttempts = reg.Histogram("hytm/sw_attempts", metrics.PowersOfTwo(8))
	r.met.backoff = reg.Histogram("hytm/backoff_cycles", metrics.PowersOfTwo(16))
	r.met.hwCommits = reg.Counter("hytm/hw_commits")
	r.met.swCommits = reg.Counter("hytm/sw_commits")
	r.met.seqAborts = reg.Counter("hytm/seqlock_aborts")
	r.met.swCycles = reg.Counter("hytm/sw_cycles")
	r.met.serialEntries = reg.Counter("hytm/serial_entries")
	r.met.serialCycles = reg.Counter("hytm/serial_cycles")
}

// New builds the hybrid runtime for an installed ASF system. layout
// provides the runtime's metadata region (the two sequence words, each on
// its own line, plus per-core software logs) and name is the figure label
// ("HyTM-8", "HyTM-256").
func New(sys *asf.System, heap *tm.Heap, m *sim.Machine, layout *mem.Layout, name string) *Runtime {
	base, _ := layout.Region(2 * mem.LineSize)
	m.Mem.Prefault(base, 2*mem.LineSize)
	cores := m.Config().Cores
	r := &Runtime{
		sys:     sys,
		heap:    heap,
		m:       m,
		cfg:     DefaultConfig(),
		name:    name,
		swSeq:   base,
		swCount: base + mem.WordSize,
		hwSeq:   base + mem.LineSize,
		stats:   make([]tm.Stats, cores),
		txs:     make([]hyTx, cores),
		depth:   make([]int, cores),
	}
	for i := range r.txs {
		logBase, logEnd := layout.Region(1 << 18) // 256 KiB of log space
		m.Mem.Prefault(logBase, uint64(logEnd-logBase))
		r.txs[i] = hyTx{
			r:        r,
			windex:   make(map[mem.Addr]int),
			readLog:  logBase,
			writeLog: logBase + (1 << 17),
		}
	}
	return r
}

// SetConfig replaces the contention-management configuration.
func (r *Runtime) SetConfig(cfg Config) { r.cfg = cfg }

// Name implements tm.Runtime.
func (r *Runtime) Name() string { return r.name }

// Stats implements tm.Runtime.
func (r *Runtime) Stats(core int) tm.Stats { return r.stats[core] }

// ResetStats implements tm.Runtime.
func (r *Runtime) ResetStats() {
	for i := range r.stats {
		r.stats[i] = tm.Stats{}
		r.sys.Unit(i).ResetStats()
	}
}

// Transaction modes. A transaction starts in hardware and only moves
// forward: hw → sw → serial.
const (
	modeHW = iota
	modeSW
	modeSerial
)

// Atomic implements tm.Runtime: hardware attempts with the seqlock
// subscription, then the concurrent software fallback, then (explicit
// request or livelock valve only) serial-irrevocable mode.
func (r *Runtime) Atomic(c *sim.CPU, body func(tx tm.Tx)) {
	id := c.ID()
	if r.depth[id] > 0 {
		// Flat nesting at the language level.
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
	t.c, t.u, t.mode, t.wrote = c, u, modeHW, false

	if r.cfg.ForceSW {
		r.Begin(c, tm.PathSW)
		r.runSW(c, t, body)
		return
	}

	r.Begin(c, tm.PathHW)
	attempts := 0
	for {
		a := r.Attempt(c)
		c.Exec(r.cfg.BeginInstr)

		reason, code := u.Region(func() {
			// Subscribe: the commit-sequence word is the first
			// speculative read of every region. Odd means a software
			// writeback (or serial transaction) is in flight — we must
			// not read around it; and any later acquisition's CAS write
			// aborts us instantly.
			if u.Load(r.swSeq)&1 != 0 {
				u.Abort(tm.CodeSeqLocked)
			}
			// Same subscribed line: if a software transaction arrives
			// after this load, its population increment aborts us, so a
			// false answer stays true for the whole region.
			t.swPresent = u.Load(r.swCount) != 0
			c.SetCategory(sim.CatTxApp)
			body(t)
			c.SetCategory(sim.CatTxStartCommit)
			if t.wrote && t.swPresent {
				// Publish the commit to the concurrent software
				// transactions: their value validation re-arms when
				// the counter moves. Last store of the region, so the
				// conflict window on the counter line is one commit.
				u.Store(r.hwSeq, u.Load(r.hwSeq)+1)
			}
			c.Exec(r.cfg.CommitInstr)
		})

		read, write := u.LastSetSizes()
		if reason == sim.AbortNone {
			st.Commits++
			r.met.hwCommits.Inc(id)
			r.met.hwAttempts.Observe(id, uint64(attempts+1))
			r.CommitPoint(c, false)
			a.Commit(tm.PathHW, int(read), int(write))
			return
		}

		by, addr := u.LastAbortEdge()
		a.Abort(tm.TxEvent{Path: tm.PathHW, Cause: reason, Code: code, Aborter: by, Addr: addr,
			Reads: uint32(read), Writes: uint32(write)})
		attempts++
		t.wrote = false

		fallback := false
		switch reason {
		case sim.AbortCapacity:
			// The working set does not fit: go software, concurrently.
			st.Aborts[sim.AbortCapacity]++
			fallback = true
		case sim.AbortExplicit:
			switch code {
			case tm.CodeMallocRefill:
				st.MallocAborts++
				st.Aborts[sim.AbortExplicit]++
				r.heap.Refill(c, r.heap.ChunkSize)
			case tm.CodeSeqLocked:
				st.Aborts[sim.AbortContention]++
				st.SeqAborts++
				r.met.seqAborts.Inc(id)
				r.waitSeqEven(c)
			case tm.CodeSerialRequest:
				st.Aborts[sim.AbortExplicit]++
				r.met.hwAttempts.Observe(id, uint64(attempts))
				r.Fallback(c, tm.PathSerial)
				r.runSerial(c, t, body)
				return
			default:
				st.Aborts[sim.AbortExplicit]++
			}
		case sim.AbortContention:
			st.Aborts[sim.AbortContention]++
			tm.Backoff(c, attempts, r.cfg.BackoffMax, r.met.backoff)
		default:
			// Page fault (now handled), interrupt, syscall: retry.
			st.Aborts[reason]++
		}

		if fallback || attempts >= r.cfg.MaxHWAttempts {
			r.met.hwAttempts.Observe(id, uint64(attempts))
			r.Fallback(c, tm.PathSW)
			r.runSW(c, t, body)
			return
		}
	}
}

// waitSeqEven polls the commit-sequence word with plain reads (they do not
// conflict) until the in-flight software writeback or serial transaction
// releases it.
func (r *Runtime) waitSeqEven(c *sim.CPU) {
	for c.Load(r.swSeq)&1 != 0 {
		c.Cycles(200)
	}
}

// hyConflict is the panic sentinel for the software longjmp on abort.
type hyConflict struct{ core int }

// runSW executes body on the concurrent software fallback path, retrying
// on validation failures until commit (or serial escalation).
func (r *Runtime) runSW(c *sim.CPU, t *hyTx, body func(tx tm.Tx)) {
	id := c.ID()
	st := &r.stats[id]
	entry := c.Now()
	// Announce the fallback: hardware writers start bumping hwSeq, and the
	// write probe aborts any in-flight region that read a zero count.
	c.FetchAdd(r.swCount, 1)
	defer c.FetchAdd(r.swCount, ^mem.Word(0))
	retries := 0
	for {
		a := r.Attempt(c)
		t.swBegin()

		committed := func() (committed bool) {
			defer func() {
				rec := recover()
				if rec == nil {
					return
				}
				if hc, ok := rec.(hyConflict); ok && hc.core == id {
					committed = false
					return
				}
				panic(rec)
			}()
			c.SetCategory(sim.CatTxApp)
			body(t)
			c.SetCategory(sim.CatTxStartCommit)
			t.swCommit()
			return true
		}()

		if committed {
			st.Commits++
			st.SWCommits++
			r.CommitPoint(c, false)
			r.met.swCommits.Inc(id)
			r.met.swAttempts.Observe(id, uint64(retries+1))
			r.met.swCycles.Add(id, c.Now()-entry)
			a.Commit(tm.PathSW, len(t.reads), len(t.writes))
			t.swReset()
			return
		}

		// Aborted: the redo log is simply discarded — nothing was
		// published, so there is no undo.
		a.Abort(tm.TxEvent{Path: tm.PathSW, STM: true, Aborter: t.lastBy, Addr: t.lastAddr,
			Reads: uint32(len(t.reads)), Writes: uint32(len(t.writes))})
		st.STMAborts++
		retries++
		force := t.forceSerial
		t.forceSerial = false
		t.swReset()
		if force || retries >= r.cfg.MaxSWAttempts {
			r.met.swAttempts.Observe(id, uint64(retries))
			r.met.swCycles.Add(id, c.Now()-entry)
			r.Fallback(c, tm.PathSerial)
			r.runSerial(c, t, body)
			return
		}
		tm.Backoff(c, retries, r.cfg.BackoffMax, r.met.backoff)
	}
}

// runSerial executes body in serial-irrevocable mode: a degenerate
// software commit that holds the seqlock for the whole transaction. The
// acquisition aborts every subscribed hardware region; concurrent software
// transactions stall at their next validation until release, then
// re-validate by value against the serial transaction's in-place writes.
func (r *Runtime) runSerial(c *sim.CPU, t *hyTx, body func(tx tm.Tx)) {
	id := c.ID()
	st := &r.stats[id]
	a := r.Attempt(c)
	var seq mem.Word
	for {
		s := c.Load(r.swSeq)
		if s&1 == 0 {
			killed := r.sys.Monitors(c, r.swSeq)
			if _, ok := c.CAS(r.swSeq, s, s+1); ok {
				seq = s
				if killed > 0 {
					st.SeqAborts += uint64(killed)
					r.met.seqAborts.Add(id, uint64(killed))
				}
				break
			}
		}
		c.Cycles(uint64(c.Rand().Int63n(400)) + 100)
	}
	t.mode = modeSerial
	r.met.serialEntries.Inc(id)
	held := c.Now()
	c.SetCategory(sim.CatTxApp)
	body(t)
	c.SetCategory(sim.CatTxStartCommit)
	r.CommitPoint(c, true) // before the release: the seqlock is the commit point
	c.Store(r.swSeq, seq+2)
	r.met.serialCycles.Add(id, c.Now()-held)
	t.mode = modeHW
	st.Commits++
	st.Serial++
	a.Commit(tm.PathSerial, 0, 0)
}

// --- transaction descriptor ------------------------------------------------

type swRead struct {
	addr mem.Addr
	val  mem.Word
}

type swWrite struct {
	addr mem.Addr
	val  mem.Word
}

// hyTx implements tm.Tx for all three code paths — hardware, concurrent
// software, serial — dispatched by mode, like the begin function's return
// value selects the compiled code path (§3.1).
type hyTx struct {
	r    *Runtime
	c    *sim.CPU
	u    *asf.Unit
	mode int
	// wrote marks a hardware transaction that performed a transactional
	// store; swPresent records whether software transactions existed at
	// region begin (together they decide the hwSeq bump at commit).
	wrote, swPresent bool
	// forceSerial carries a BecomeIrrevocable request out of the software
	// path's abort unwind.
	forceSerial bool

	// Software descriptor: NOrec-style value-logged reads and a redo log
	// with an index for read-own-write.
	swSnap, hwSnap mem.Word
	reads          []swRead
	writes         []swWrite
	windex         map[mem.Addr]int

	// readLog/writeLog are the simulated-memory backing of the logs, so
	// each append charges a real store (the logs stay cache-hot).
	readLog, writeLog mem.Addr

	// lastBy/lastAddr stash the abort edge for the flight recorder before
	// the software longjmp unwinds (NOrec value validation cannot identify
	// the aborter, so lastBy stays sim.NoCore).
	lastBy   int
	lastAddr mem.Addr
}

func (t *hyTx) swAbort() {
	t.swAbortAt(sim.NoAddr)
}

// swAbortAt records the conflicting address, then unwinds.
func (t *hyTx) swAbortAt(a mem.Addr) {
	t.lastBy, t.lastAddr = sim.NoCore, a
	panic(hyConflict{core: t.c.ID()})
}

// swBegin samples a consistent (even) seqlock snapshot.
func (t *hyTx) swBegin() {
	c := t.c
	t.mode = modeSW
	c.Exec(t.r.cfg.SWBeginInstr)
	for {
		s := c.Load(t.r.swSeq)
		if s&1 == 0 {
			t.swSnap = s
			break
		}
		c.Cycles(200)
	}
	t.hwSnap = c.Load(t.r.hwSeq)
}

// swRevalidate re-establishes a consistent snapshot: wait out any
// writeback, validate every read by value, and move the snapshot forward.
// Aborts (software longjmp) on a changed value.
func (t *hyTx) swRevalidate() {
	c := t.c
	for {
		s := c.Load(t.r.swSeq)
		if s&1 != 0 {
			c.Cycles(200)
			continue
		}
		h := c.Load(t.r.hwSeq)
		for i := range t.reads {
			e := &t.reads[i]
			c.Exec(t.r.cfg.SWValidateInstrPerEntry)
			if c.Load(e.addr) != e.val {
				t.swAbortAt(e.addr)
			}
		}
		if c.Load(t.r.swSeq) == s {
			t.swSnap, t.hwSnap = s, h
			return
		}
	}
}

// swLoad is the NOrec read barrier: read-own-write from the redo log, else
// a plain load bracketed by the two sequence samples, re-validating when
// either moved since the snapshot.
func (t *hyTx) swLoad(a mem.Addr) mem.Word {
	c := t.c
	c.Exec(t.r.cfg.SWReadInstr)
	if i, ok := t.windex[a]; ok {
		return t.writes[i].val
	}
	v := c.Load(a)
	for {
		if c.Load(t.r.swSeq) == t.swSnap && c.Load(t.r.hwSeq) == t.hwSnap {
			break
		}
		t.swRevalidate()
		v = c.Load(a)
	}
	// Append to the read log (one simulated store).
	c.Store(t.readLogSlot(), mem.Word(a))
	t.reads = append(t.reads, swRead{addr: a, val: v})
	return v
}

// swStore buffers the write in the redo log; nothing is published until
// commit, so concurrent readers never see speculative software state.
func (t *hyTx) swStore(a mem.Addr, v mem.Word) {
	c := t.c
	c.Exec(t.r.cfg.SWWriteInstr)
	if i, ok := t.windex[a]; ok {
		t.writes[i].val = v
		c.Store(t.writeLog+mem.Addr((uint64(i)*2+1)*mem.WordSize)&((1<<17)-1), v)
		return
	}
	// Redo-log append: address + value (two simulated stores).
	i := len(t.writes)
	c.Store(t.writeLogSlot(i), mem.Word(a))
	c.Store(t.writeLogSlot(i)+mem.WordSize, v)
	t.windex[a] = i
	t.writes = append(t.writes, swWrite{addr: a, val: v})
}

// swCommit publishes the redo log under the seqlock. Read-only
// transactions commit at their (validated) snapshot without touching it.
func (t *hyTx) swCommit() {
	c := t.c
	r := t.r
	c.Exec(r.cfg.SWCommitInstr)
	if len(t.writes) == 0 {
		if c.Load(r.swSeq) != t.swSnap || c.Load(r.hwSeq) != t.hwSnap {
			t.swRevalidate()
		}
		return
	}
	id := c.ID()
	st := &r.stats[id]
	for {
		if c.Load(r.swSeq) != t.swSnap {
			// Someone committed since the snapshot: re-validate (and
			// move the snapshot up) before trying to acquire.
			t.swRevalidate()
			continue
		}
		// Count the subscribed hardware regions the acquisition is about
		// to kill (seqlock-induced aborts, attributed here: the victims
		// observe an indistinguishable contention abort).
		killed := r.sys.Monitors(c, r.swSeq)
		if _, ok := c.CAS(r.swSeq, t.swSnap, t.swSnap+1); !ok {
			c.Cycles(uint64(c.Rand().Int63n(200)) + 50)
			continue
		}
		if killed > 0 {
			st.SeqAborts += uint64(killed)
			r.met.seqAborts.Add(id, uint64(killed))
		}
		break
	}
	// Seqlock held (odd). The acquisition CAS itself validated that no
	// software commit intervened; a hardware commit still might have.
	if c.Load(r.hwSeq) != t.hwSnap {
		for i := range t.reads {
			e := &t.reads[i]
			c.Exec(r.cfg.SWValidateInstrPerEntry)
			if c.Load(e.addr) != e.val {
				c.Store(r.swSeq, t.swSnap+2) // release before unwinding
				t.swAbortAt(e.addr)
			}
		}
	}
	for i := range t.writes {
		w := &t.writes[i]
		c.Exec(r.cfg.SWWritebackInstrPerEntry)
		c.Store(w.addr, w.val)
	}
	c.Store(r.swSeq, t.swSnap+2)
}

func (t *hyTx) swReset() {
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
	clear(t.windex)
	t.mode = modeHW
}

// readLogSlot returns the next simulated-memory slot of the read log,
// wrapping within its region (the charge is what matters).
func (t *hyTx) readLogSlot() mem.Addr {
	off := (uint64(len(t.reads)) * mem.WordSize) & ((1 << 17) - 1)
	return t.readLog + mem.Addr(off)
}

func (t *hyTx) writeLogSlot(i int) mem.Addr {
	off := (uint64(i) * 2 * mem.WordSize) & ((1 << 17) - 1)
	return t.writeLog + mem.Addr(off)
}

// --- tm.Tx -----------------------------------------------------------------

// Load implements tm.Tx.
func (t *hyTx) Load(a mem.Addr) mem.Word {
	prev := t.c.SetCategory(sim.CatTxLoadStore)
	var v mem.Word
	switch t.mode {
	case modeHW:
		t.c.Exec(t.r.cfg.BarrierInstr)
		v = t.u.Load(a)
	case modeSW:
		v = t.swLoad(a)
	default: // serial: plain accesses behind the seqlock
		t.c.Exec(2)
		v = t.c.Load(a)
	}
	t.c.SetCategory(prev)
	return v
}

// Store implements tm.Tx.
func (t *hyTx) Store(a mem.Addr, v mem.Word) {
	prev := t.c.SetCategory(sim.CatTxLoadStore)
	switch t.mode {
	case modeHW:
		t.c.Exec(t.r.cfg.BarrierInstr)
		t.u.Store(a, v)
		t.wrote = true
	case modeSW:
		t.swStore(a, v)
	default:
		t.c.Exec(2)
		t.c.Store(a, v)
	}
	t.c.SetCategory(prev)
}

// Alloc implements tm.Tx: pool allocation. The software and serial paths
// can refill inline (no speculative region is at risk); the hardware path
// aborts to refill outside the region (§3.3).
func (t *hyTx) Alloc(size uint64) mem.Addr {
	for {
		a, ok := t.r.heap.AllocFast(t.c, size, mem.WordSize)
		if ok {
			return a
		}
		if t.mode != modeHW {
			t.r.heap.Refill(t.c, size)
			continue
		}
		t.u.Abort(tm.CodeMallocRefill)
	}
}

// AllocLines implements tm.Tx.
func (t *hyTx) AllocLines(n int) mem.Addr {
	for {
		a, ok := t.r.heap.AllocFast(t.c, uint64(n)*mem.LineSize, mem.LineSize)
		if ok {
			return a
		}
		if t.mode != modeHW {
			t.r.heap.Refill(t.c, uint64(n)*mem.LineSize)
			continue
		}
		t.u.Abort(tm.CodeMallocRefill)
	}
}

// Free implements tm.Tx.
func (t *hyTx) Free(a mem.Addr) { t.r.heap.Free(t.c, a) }

// CPU implements tm.Tx.
func (t *hyTx) CPU() *sim.CPU { return t.c }

// Irrevocable implements tm.Tx.
func (t *hyTx) Irrevocable() bool { return t.mode == modeSerial }

// BecomeIrrevocable implements tm.Irrevocably: a hardware transaction
// aborts with a software code and restarts directly in serial mode; a
// software transaction unwinds and escalates; a serial transaction already
// is irrevocable.
func (t *hyTx) BecomeIrrevocable() {
	switch t.mode {
	case modeHW:
		t.u.Abort(tm.CodeSerialRequest)
	case modeSW:
		t.forceSerial = true
		t.swAbort()
	}
}

// Release exposes ASF early release on the hardware path (the linked-list
// workload's hand-over-hand traversal); the software and serial paths have
// no monitored read set to trim, so it is a no-op there.
func (t *hyTx) Release(a mem.Addr) {
	if t.mode == modeHW {
		t.u.Release(a)
	}
}

// Tx is the exported name of the runtime's transaction descriptor.
type Tx = hyTx
