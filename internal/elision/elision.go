// Package elision implements transactional lock elision on ASF — the
// paper's path for existing lock-based software (§3): "our software stack
// also supports existing software with the help of lock elision [25]".
//
// A critical section is first attempted as an ASF speculative region that
// *reads* the lock word (adding it to the read set) without acquiring it:
// concurrent critical sections on the same lock run in parallel as long as
// their data accesses do not conflict. Any real acquisition of the lock
// writes the word and thereby aborts all elided sections instantly
// (requester wins). After repeated aborts or a capacity overflow the
// section falls back to actually taking the lock.
//
// As with compiler-driven elision, the section's shared accesses must be
// annotated speculative while eliding — the CS handle does this, issuing
// LOCK MOVs on the hardware path and plain accesses when the lock is held.
package elision

import (
	"asfstack/internal/asf"
	"asfstack/internal/mem"
	"asfstack/internal/metrics"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// codeLockBusy is the ABORT code used when the elided region observes the
// lock already held.
const codeLockBusy uint64 = 0xE11DE

// backoffMax caps the randomised retry back-off (cycles; see tm.Backoff).
const backoffMax = tm.BackoffBase << 8

// Mutex is a lock word in simulated memory, alone on its cache line.
type Mutex struct {
	addr mem.Addr
}

// NewMutex allocates a mutex. alloc must return line-aligned memory (use
// tm.Tx.AllocLines or an arena).
func NewMutex(a mem.Addr) *Mutex {
	if a%mem.LineSize != 0 {
		panic("elision: mutex must be line-aligned")
	}
	return &Mutex{addr: a}
}

// Addr returns the lock word's address.
func (m *Mutex) Addr() mem.Addr { return m.addr }

// Stats counts how critical sections executed.
type Stats struct {
	Elided   uint64 // committed speculatively, lock never taken
	Acquired uint64 // fell back to real acquisition
	Aborts   uint64 // failed elision attempts
}

// Elider runs critical sections with elision on one ASF system.
type Elider struct {
	sys *asf.System
	// MaxAttempts bounds elision retries before falling back.
	MaxAttempts int

	stats []Stats
}

// New builds an elider for sys.
func New(sys *asf.System, cores int) *Elider {
	return &Elider{sys: sys, MaxAttempts: 4, stats: make([]Stats, cores)}
}

// Stats returns core i's counters.
func (e *Elider) Stats(i int) Stats { return e.stats[i] }

// CS is the critical-section handle: accesses through it are speculative
// while eliding and plain once the lock is truly held.
type CS struct {
	c *sim.CPU
	u *asf.Unit // nil when the lock is held for real
}

// Load reads a shared word inside the critical section.
func (s CS) Load(a mem.Addr) mem.Word {
	if s.u != nil {
		return s.u.Load(a)
	}
	return s.c.Load(a)
}

// Store writes a shared word inside the critical section.
func (s CS) Store(a mem.Addr, v mem.Word) {
	if s.u != nil {
		s.u.Store(a, v)
	} else {
		s.c.Store(a, v)
	}
}

// CPU returns the executing core.
func (s CS) CPU() *sim.CPU { return s.c }

// Elided reports whether the section is running speculatively.
func (s CS) Elided() bool { return s.u != nil }

// Critical executes body under m, eliding the lock when possible.
func (e *Elider) Critical(c *sim.CPU, m *Mutex, body func(cs CS)) {
	u := e.sys.Unit(c.ID())
	st := &e.stats[c.ID()]

	for attempt := 0; attempt < e.MaxAttempts; attempt++ {
		reason, code := u.Region(func() {
			// Monitor the lock word: a real acquisition aborts us.
			if u.Load(m.addr) != 0 {
				u.Abort(codeLockBusy)
			}
			body(CS{c: c, u: u})
		})
		if reason == sim.AbortNone {
			st.Elided++
			return
		}
		st.Aborts++
		switch {
		case reason == sim.AbortExplicit && code == codeLockBusy:
			// Someone holds the lock for real: wait it out, then
			// re-elide (no need to count against the budget harshly,
			// but bounded anyway).
			for c.Load(m.addr) != 0 {
				c.Cycles(150)
			}
		case reason == sim.AbortCapacity:
			// The section does not fit in hardware: no point retrying.
			attempt = e.MaxAttempts
		default:
			tm.Backoff(c, attempt, backoffMax, metrics.Histogram{})
		}
	}

	// Fallback: take the lock. The CAS write aborts every elided section
	// monitoring the word.
	for {
		if _, ok := c.CAS(m.addr, 0, mem.Word(c.ID())+1); ok {
			break
		}
		c.Cycles(uint64(c.Rand().Int63n(300)) + 50)
	}
	body(CS{c: c})
	c.Store(m.addr, 0)
	st.Acquired++
}
