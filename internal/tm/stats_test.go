package tm

import (
	"testing"

	"asfstack/internal/sim"
)

func TestStatsArithmetic(t *testing.T) {
	var a Stats
	a.Commits = 10
	a.Serial = 2
	a.Aborts[sim.AbortContention] = 3
	a.Aborts[sim.AbortCapacity] = 1
	a.STMAborts = 4
	a.MallocAborts = 1

	if got := a.TotalAborts(); got != 8 {
		t.Errorf("TotalAborts = %d, want 8", got)
	}
	if got := a.Attempts(); got != 18 {
		t.Errorf("Attempts = %d, want 18", got)
	}

	var b Stats
	b.Commits = 5
	b.Aborts[sim.AbortContention] = 2
	b.Add(a)
	if b.Commits != 15 || b.Aborts[sim.AbortContention] != 5 ||
		b.Serial != 2 || b.STMAborts != 4 || b.MallocAborts != 1 {
		t.Errorf("Add result = %+v", b)
	}

	// Sub undoes Add field by field, including the fields a leaves zero
	// above.
	a.SWCommits, a.SeqAborts, a.Seals = 7, 6, 9
	a.Aborts[sim.AbortPageFault] = 11
	orig := b
	b.Add(a)
	b.Sub(a)
	if b != orig {
		t.Errorf("Add then Sub = %+v, want %+v", b, orig)
	}
	b.Sub(orig)
	if b != (Stats{}) {
		t.Errorf("Sub of itself = %+v, want zero", b)
	}
}
