package tm

import (
	"asfstack/internal/mem"
	"asfstack/internal/metrics"
	"asfstack/internal/sim"
)

// BackoffBase is the first window of the randomised exponential back-off,
// in cycles.
const BackoffBase = 64

// Backoff spins c for a delay drawn uniformly from [1, limit] cycles before
// retry number attempt, where limit is BackoffBase<<attempt capped at
// maxDelay, and records the delay in h (the zero Histogram records
// nothing).
func Backoff(c *sim.CPU, attempt int, maxDelay uint64, h metrics.Histogram) {
	limit := maxDelay
	if attempt < 32 && BackoffBase<<uint(attempt) < maxDelay {
		limit = BackoffBase << uint(attempt)
	}
	delay := uint64(c.Rand().Int63n(int64(limit))) + 1
	h.Observe(c.ID(), delay)
	c.Cycles(delay)
}

// SerialToken is a global serial-irrevocable token: one word, alone on its
// cache line, that is zero while free. A holder runs alone: ASF-TM's
// hardware regions read the token speculatively and are aborted by its
// acquisition; the STM's transactions wait it out at begin and refuse to
// publish while it is held.
type SerialToken struct {
	Addr mem.Addr
	// Entries counts acquisitions; Cycles accumulates the simulated cycles
	// the token was held. The zero Counters record nothing.
	Entries, Cycles metrics.Counter
}

// Acquire takes the token with a plain CAS, pausing 100–499 cycles between
// failed tries, and returns the cycle it was acquired at (for Release).
func (t *SerialToken) Acquire(c *sim.CPU) (held uint64) {
	for {
		if _, ok := c.CAS(t.Addr, 0, 1); ok {
			break
		}
		c.Cycles(uint64(c.Rand().Int63n(400)) + 100)
	}
	t.Entries.Inc(c.ID())
	return c.Now()
}

// Wait polls the token with plain loads, which do not conflict, until it
// is free.
func (t *SerialToken) Wait(c *sim.CPU) {
	for c.Load(t.Addr) != 0 {
		c.Cycles(200)
	}
}

// Release frees the token acquired at cycle held.
func (t *SerialToken) Release(c *sim.CPU, held uint64) {
	c.Store(t.Addr, 0)
	t.Cycles.Add(c.ID(), c.Now()-held)
}
