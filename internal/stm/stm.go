// Package stm is the software-TM baseline of the evaluation: a word-based,
// time-based STM in write-through mode, modelled on TinySTM 0.9.9 exactly
// as the paper configures it (§5).
//
// The algorithm is encounter-time locking with in-place (write-through)
// updates and an undo log:
//
//   - a global version clock and an array of versioned locks, hashed by
//     word address, both living in *simulated* memory so every barrier's
//     metadata traffic is charged by the cache model rather than assumed;
//   - reads are invisible: read the lock, read the data, re-read the lock,
//     and validate the version against the transaction's start time, with
//     lazy snapshot extension (LSA) when the version is newer;
//   - writes acquire the lock with a CAS, log the old value, and update
//     memory in place; aborts undo from the log and release the locks;
//   - commit fetches a new timestamp from the global clock, validates the
//     read set if needed, and releases write locks at the new version.
//
// Conflicts abort the transaction via a panic unwound to the retry loop
// (the software analogue of TinySTM's sigsetjmp/siglongjmp), followed by
// randomised exponential back-off.
package stm

import (
	"asfstack/internal/mem"
	"asfstack/internal/metrics"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// Config tunes the STM's geometry and costs.
type Config struct {
	// LockBits sets the versioned-lock array size to 2^LockBits entries
	// (one word each). TinySTM's default array is 2^20 entries; scaled
	// to this simulator's footprints we default to 2^18 (2 MiB).
	LockBits uint
	// MaxRetriesBeforeSerial bounds optimistic retries before the
	// transaction becomes irrevocable (TinySTM's serial mode).
	MaxRetriesBeforeSerial int
	// PrivatizationSafe enables commit-time quiescence (TinySTM's
	// stm_quiesce): a committing writer waits until every concurrent
	// transaction has finished or revalidated against its commit before
	// returning. Without it a doomed transaction can write through — or
	// undo — in place *after* a privatizing transaction committed,
	// clobbering data its owner now accesses with plain operations (the
	// litmus suite's privatization test catches exactly this). On by
	// default; the litmus matrix pins the unsafe behaviour as a regression.
	PrivatizationSafe bool
	// BackoffMax caps the exponential back-off (cycles; see tm.Backoff).
	BackoffMax uint64

	// Software path lengths, in instructions (beyond the memory traffic,
	// which is charged by the cache model).
	BeginInstr, CommitInstr int
	ReadInstr, WriteInstr   int
	ValidateInstrPerEntry   int
	UndoInstrPerEntry       int
}

// DefaultConfig returns the evaluation configuration.
func DefaultConfig() Config {
	return Config{
		LockBits:               18,
		MaxRetriesBeforeSerial: 64,
		PrivatizationSafe:      true,
		BackoffMax:             1 << 16,
		BeginInstr:             70,
		CommitInstr:            30,
		ReadInstr:              35,
		WriteInstr:             55,
		ValidateInstrPerEntry:  4,
		UndoInstrPerEntry:      6,
	}
}

// lock word encoding: LSB set = locked, owner core in the upper bits;
// LSB clear = version (commit timestamp << 1).
func lockedBy(core int) mem.Word     { return mem.Word(core)<<1 | 1 }
func isLocked(l mem.Word) bool       { return l&1 == 1 }
func lockOwner(l mem.Word) int       { return int(l >> 1) }
func versionOf(l mem.Word) uint64    { return uint64(l >> 1) }
func versionWord(ts uint64) mem.Word { return mem.Word(ts << 1) }

// Runtime implements tm.Runtime with the TinySTM algorithm.
type Runtime struct {
	tm.Emitter // lifecycle reporting; provides SetCommitHook/SetProfiler

	m    *sim.Machine
	heap *tm.Heap
	cfg  Config

	clockAddr mem.Addr // global version clock
	lockBase  mem.Addr // versioned-lock array
	lockMask  uint64

	serial tm.SerialToken // irrevocable-mode token

	// statusBase is the per-core published transaction status used by
	// commit-time quiescence, one cache line per core. The word encodes
	// start<<1|1 while a revocable transaction is live and 0 when idle
	// (or irrevocable — a serial transaction can never abort-and-undo, so
	// it is not a zombie hazard and nobody needs to wait for it).
	statusBase mem.Addr

	stats []tm.Stats
	descs []*txDesc

	met rtMetrics
}

// rtMetrics holds the runtime's metric handles (zero-value inert).
type rtMetrics struct {
	// attempts is the number of attempts each transaction made before
	// committing (1 = first try).
	attempts metrics.Histogram
	// backoff records each contention back-off delay, in cycles.
	backoff metrics.Histogram
	// Read/write-set sizes (in entries) observed at commit.
	readCommit  metrics.Histogram
	writeCommit metrics.Histogram
}

// SetMetrics registers the runtime's instruments with reg. Must be called
// before the first transaction (stack construction does this).
func (r *Runtime) SetMetrics(reg *metrics.Registry) {
	r.met.attempts = reg.Histogram("stm/attempts", metrics.PowersOfTwo(8))
	r.met.backoff = reg.Histogram("stm/backoff_cycles", metrics.PowersOfTwo(16))
	sizes := metrics.PowersOfTwo(10)
	r.met.readCommit = reg.Histogram("stm/readset_entries/commit", sizes)
	r.met.writeCommit = reg.Histogram("stm/writeset_entries/commit", sizes)
	r.serial.Entries = reg.Counter("stm/serial_entries")
	r.serial.Cycles = reg.Counter("stm/serial_cycles")
}

type readEntry struct {
	lockAddr mem.Addr
	version  mem.Word // lock word observed at read time
}

type writeEntry struct {
	addr     mem.Addr
	old      mem.Word
	lockAddr mem.Addr
	first    bool // first entry holding this lock (release point)
}

type txDesc struct {
	r           *Runtime
	c           *sim.CPU
	start       uint64
	reads       []readEntry
	writes      []writeEntry
	serial      bool
	serialStart uint64 // cycle the irrevocability token was acquired
	forceSerial bool   // BecomeIrrevocable requested a serial restart
	active      bool
	depth       int

	// readLog/writeLog are the simulated-memory backing of the logs, so
	// each append charges a real store (TinySTM's logs are ordinary
	// malloc'd arrays that stay cache-hot).
	readLog, writeLog mem.Addr

	// lastBy/lastAddr: the causality edge of the most recent abort (lock
	// owner that conflicted and the contended word), recorded just before
	// the longjmp for the flight recorder.
	lastBy   int
	lastAddr mem.Addr
}

// stmConflict is the panic sentinel for the software longjmp on abort.
type stmConflict struct{ core int }

// New builds the STM over machine m. Its metadata (clock, lock array,
// per-thread logs) is laid out in layout's space and prefaulted: TinySTM
// allocates these at startup.
func New(m *sim.Machine, heap *tm.Heap, layout *mem.Layout) *Runtime {
	cfg := DefaultConfig()
	cores := m.Config().Cores
	r := &Runtime{m: m, heap: heap, cfg: cfg, stats: make([]tm.Stats, cores)}

	nLocks := uint64(1) << cfg.LockBits
	base, end := layout.Region(nLocks*mem.WordSize + 2*mem.PageSize)
	m.Mem.Prefault(base, uint64(end-base))
	r.clockAddr = base
	r.serial.Addr = base + mem.LineSize
	r.lockBase = base + mem.PageSize
	r.lockMask = nLocks - 1

	statusBase, statusEnd := layout.Region(uint64(cores) * mem.LineSize)
	m.Mem.Prefault(statusBase, uint64(statusEnd-statusBase))
	r.statusBase = statusBase

	for i := 0; i < cores; i++ {
		logBase, logEnd := layout.Region(1 << 18) // 256 KiB of log space
		m.Mem.Prefault(logBase, uint64(logEnd-logBase))
		r.descs = append(r.descs, &txDesc{
			r:        r,
			readLog:  logBase,
			writeLog: logBase + (1 << 17),
		})
	}
	return r
}

// SetConfig replaces the configuration (before any transaction runs).
func (r *Runtime) SetConfig(cfg Config) { r.cfg = cfg }

// Name implements tm.Runtime.
func (r *Runtime) Name() string { return "STM" }

// Stats implements tm.Runtime.
func (r *Runtime) Stats(core int) tm.Stats { return r.stats[core] }

// ResetStats implements tm.Runtime.
func (r *Runtime) ResetStats() {
	for i := range r.stats {
		r.stats[i] = tm.Stats{}
	}
}

func (r *Runtime) lockFor(a mem.Addr) mem.Addr {
	idx := (uint64(a) >> mem.WordShift) & r.lockMask
	return r.lockBase + mem.Addr(idx*mem.WordSize)
}

func (r *Runtime) statusAddr(core int) mem.Addr {
	return r.statusBase + mem.Addr(uint64(core)*mem.LineSize)
}

// publishStatus records this core's live start timestamp (or idle) for
// quiescing committers.
func (t *txDesc) publishStatus(live bool) {
	if !t.r.cfg.PrivatizationSafe {
		return
	}
	w := mem.Word(0)
	if live {
		w = mem.Word(t.start)<<1 | 1
	}
	t.c.Store(t.r.statusAddr(t.c.ID()), w)
}

// quiesce is the privatization-safety wait: after publishing a commit at
// timestamp ts (locks already released), wait until no other core is still
// running a transaction that started before ts. Any such transaction is a
// potential zombie — doomed by this commit but not yet aware — and could
// otherwise write through, or roll back, in place after our caller starts
// treating the data as private. The committer's own status is already idle,
// so two quiescing writers never wait for each other; zombies drain because
// their next barrier revalidates against the moved clock and aborts.
func (r *Runtime) quiesce(c *sim.CPU, ts uint64) {
	if !r.cfg.PrivatizationSafe || len(r.descs) == 1 {
		return
	}
	me := c.ID()
	for i := range r.descs {
		if i == me {
			continue
		}
		for {
			s := c.Load(r.statusAddr(i))
			if s&1 == 0 || uint64(s>>1) >= ts {
				break
			}
			c.Cycles(120)
		}
	}
}

// Atomic implements tm.Runtime.
func (r *Runtime) Atomic(c *sim.CPU, body func(tx tm.Tx)) {
	t := r.descs[c.ID()]
	if t.active {
		t.depth++
		body(t)
		t.depth--
		return
	}
	t.c = c
	st := &r.stats[c.ID()]

	r.Begin(c, tm.PathSW)
	retries := 0
	for {
		a := r.Attempt(c)
		t.begin()

		committed := func() (committed bool) {
			defer func() {
				rec := recover()
				if rec == nil {
					return
				}
				if sc, ok := rec.(stmConflict); ok && sc.core == c.ID() {
					committed = false
					return
				}
				panic(rec)
			}()
			c.SetCategory(sim.CatTxApp)
			body(t)
			c.SetCategory(sim.CatTxStartCommit)
			t.commit()
			return true
		}()

		if committed {
			r.CommitPoint(c, t.serial)
			path := tm.PathSW
			if t.serial {
				r.serial.Release(c, t.serialStart)
				st.Serial++
				path = tm.PathSerial
			}
			id := c.ID()
			r.met.attempts.Observe(id, uint64(retries+1))
			r.met.readCommit.Observe(id, uint64(len(t.reads)))
			r.met.writeCommit.Observe(id, uint64(len(t.writes)))
			a.Commit(path, len(t.reads), len(t.writes))
			t.reset()
			st.Commits++
			return
		}

		// Aborted: roll back in-place writes, release locks, back off.
		t.undo()
		t.publishStatus(false)
		a.Abort(tm.TxEvent{Path: tm.PathSW, STM: true, Aborter: t.lastBy, Addr: t.lastAddr,
			Reads: uint32(len(t.reads)), Writes: uint32(len(t.writes))})
		st.STMAborts++
		retries++
		t.reset()
		tm.Backoff(c, retries, r.cfg.BackoffMax, r.met.backoff)
		if retries >= r.cfg.MaxRetriesBeforeSerial || t.forceSerial {
			// Irrevocable: every other transaction fails validation
			// against the in-place writes and waits out the token.
			t.forceSerial = false
			r.Fallback(c, tm.PathSerial)
			t.serialStart = r.serial.Acquire(c)
			t.serial = true
		}
	}
}

// --- transaction descriptor ----------------------------------------------

func (t *txDesc) begin() {
	c := t.c
	c.Exec(t.r.cfg.BeginInstr)
	// An irrevocable transaction already holds the token and runs with
	// locking but without the possibility of self-abort; the others wait
	// for any irrevocable transaction to drain.
	if !t.serial && t.r.m.Config().Cores > 1 {
		t.r.serial.Wait(c)
	}
	t.start = versionOf(c.Load(t.r.clockAddr) &^ 1)
	t.active = true
	t.depth = 1
	if !t.serial {
		t.publishStatus(true)
	}
}

func (t *txDesc) abort() { t.abortDue(sim.NoCore, sim.NoAddr) }

// abortDue is abort carrying the causality edge: the conflicting lock's
// owner (sim.NoCore when unknown) and the contended address (sim.NoAddr
// when unknown), stashed on the descriptor for the flight recorder.
func (t *txDesc) abortDue(by int, addr mem.Addr) {
	t.lastBy, t.lastAddr = by, addr
	panic(stmConflict{core: t.c.ID()})
}

// ownerOf resolves a lock word to an owner core for abort attribution.
func ownerOf(l mem.Word) int {
	if isLocked(l) {
		return lockOwner(l)
	}
	return sim.NoCore
}

// Load implements tm.Tx: TinySTM's invisible read with LSA extension.
func (t *txDesc) Load(a mem.Addr) mem.Word {
	c := t.c
	prev := c.SetCategory(sim.CatTxLoadStore)
	defer c.SetCategory(prev)

	c.Exec(t.r.cfg.ReadInstr)
	la := t.r.lockFor(a)
	l := c.Load(la)
	if isLocked(l) {
		if lockOwner(l) == c.ID() {
			return c.Load(a) // read own write (in place)
		}
		if t.serial {
			// Irrevocable transactions cannot abort; spin until
			// the owner finishes.
			for isLocked(l) {
				c.Cycles(100)
				l = c.Load(la)
			}
		} else {
			t.abortDue(lockOwner(l), a)
		}
	}
	v := c.Load(a)
	l2 := c.Load(la)
	if l2 != l {
		if t.serial {
			return t.Load(a)
		}
		t.abortDue(ownerOf(l2), a)
	}
	if versionOf(l) > t.start {
		t.extend()
	}
	// Append to the read log (one simulated store).
	c.Store(t.readLogSlot(), mem.Word(la))
	t.reads = append(t.reads, readEntry{lockAddr: la, version: l})
	return v
}

// Store implements tm.Tx: encounter-time locking, write-through with undo.
func (t *txDesc) Store(a mem.Addr, v mem.Word) {
	c := t.c
	prev := c.SetCategory(sim.CatTxLoadStore)
	defer c.SetCategory(prev)

	c.Exec(t.r.cfg.WriteInstr)
	la := t.r.lockFor(a)
	l := c.Load(la)
	first := false
	if isLocked(l) {
		if lockOwner(l) != c.ID() {
			if t.serial {
				for isLocked(l) {
					c.Cycles(100)
					l = c.Load(la)
				}
			} else {
				t.abortDue(lockOwner(l), a)
			}
		}
	}
	if !isLocked(l) || lockOwner(l) != c.ID() {
		if versionOf(l) > t.start {
			t.extend()
		}
		if cur, ok := c.CAS(la, l, lockedBy(c.ID())); !ok {
			if t.serial {
				t.Store(a, v) // retry
				return
			}
			t.abortDue(ownerOf(cur), a)
		}
		first = true
	}
	old := c.Load(a)
	// Undo-log append: address + old value (two simulated stores).
	c.Store(t.writeLogSlot(), mem.Word(a))
	c.Store(t.writeLogSlot(), old)
	t.writes = append(t.writes, writeEntry{addr: a, old: old, lockAddr: la, first: first})
	c.Store(a, v)
}

// extend attempts LSA snapshot extension: validate every read entry, then
// move the start timestamp to the current clock.
func (t *txDesc) extend() {
	c := t.c
	now := versionOf(c.Load(t.r.clockAddr) &^ 1)
	for i := range t.reads {
		e := &t.reads[i]
		c.Exec(t.r.cfg.ValidateInstrPerEntry)
		l := c.Load(e.lockAddr)
		if l != e.version && !(isLocked(l) && lockOwner(l) == c.ID()) {
			if t.serial {
				continue
			}
			t.abortDue(ownerOf(l), sim.NoAddr)
		}
	}
	t.start = now
	if !t.serial {
		// The snapshot moved forward: quiescers waiting on this commit's
		// timestamp may now stop waiting for us.
		t.publishStatus(true)
	}
}

func (t *txDesc) commit() {
	c := t.c
	c.Exec(t.r.cfg.CommitInstr)
	if len(t.writes) == 0 {
		t.publishStatus(false)
		return // read-only: nothing to publish, nobody saw us
	}
	// An irrevocable transaction may have taken the token after we
	// started: it reads in place without logging, so we must not publish
	// underneath it. (It spins on our locks, so once it can read our
	// words we have either fully committed or fully undone.)
	if !t.serial && c.Load(t.r.serial.Addr) != 0 {
		t.abortDue(sim.NoCore, t.r.serial.Addr)
	}
	ts := uint64(c.FetchAdd(t.r.clockAddr, 2))>>1 + 1
	if ts > t.start+1 {
		t.extend()
	}
	for i := range t.writes {
		w := &t.writes[i]
		if w.first {
			c.Store(w.lockAddr, versionWord(ts))
		}
	}
	// Locks are released and this commit can no longer fail, so going idle
	// first keeps concurrent quiescing writers from waiting on each other.
	t.publishStatus(false)
	t.r.quiesce(c, ts)
}

// undo rolls back in-place writes (reverse order) and releases locks.
//
// The locks are released at a *fresh* timestamp, not the old one: the
// speculative values were transiently visible in place, so a concurrent
// reader whose two lock reads bracket our write+undo window must fail its
// validation — restoring the old version would be an ABA. (TinySTM's
// write-through rollback does the same.)
func (t *txDesc) undo() {
	c := t.c
	if len(t.writes) == 0 {
		return
	}
	for i := len(t.writes) - 1; i >= 0; i-- {
		w := &t.writes[i]
		c.Exec(t.r.cfg.UndoInstrPerEntry)
		c.Store(w.addr, w.old)
	}
	ts := uint64(c.FetchAdd(t.r.clockAddr, 2))>>1 + 1
	for i := len(t.writes) - 1; i >= 0; i-- {
		w := &t.writes[i]
		if w.first {
			c.Store(w.lockAddr, versionWord(ts))
		}
	}
}

func (t *txDesc) reset() {
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
	t.active = false
	t.serial = false
	t.depth = 0
}

// readLogSlot returns the next simulated-memory slot of the read log,
// wrapping within its region (the charge is what matters).
func (t *txDesc) readLogSlot() mem.Addr {
	off := (uint64(len(t.reads)) * mem.WordSize) & ((1 << 17) - 1)
	return t.readLog + mem.Addr(off)
}

func (t *txDesc) writeLogSlot() mem.Addr {
	off := (uint64(len(t.writes)) * 2 * mem.WordSize) & ((1 << 17) - 1)
	return t.writeLog + mem.Addr(off)
}

// Alloc implements tm.Tx. The STM can refill inline: no speculative region
// is at risk.
func (t *txDesc) Alloc(size uint64) mem.Addr {
	for {
		a, ok := t.r.heap.AllocFast(t.c, size, mem.WordSize)
		if ok {
			return a
		}
		t.r.heap.Refill(t.c, size)
	}
}

// AllocLines implements tm.Tx.
func (t *txDesc) AllocLines(n int) mem.Addr {
	for {
		a, ok := t.r.heap.AllocFast(t.c, uint64(n)*mem.LineSize, mem.LineSize)
		if ok {
			return a
		}
		t.r.heap.Refill(t.c, uint64(n)*mem.LineSize)
	}
}

// Free implements tm.Tx.
func (t *txDesc) Free(a mem.Addr) { t.r.heap.Free(t.c, a) }

// CPU implements tm.Tx.
func (t *txDesc) CPU() *sim.CPU { return t.c }

// Irrevocable implements tm.Tx.
func (t *txDesc) Irrevocable() bool { return t.serial }

// BecomeIrrevocable implements tm.Irrevocably: abort and restart holding
// the irrevocability token (TinySTM's stm_set_irrevocable with restart).
func (t *txDesc) BecomeIrrevocable() {
	if t.serial {
		return
	}
	t.forceSerial = true
	t.abort()
}
