package cache

import (
	"testing"

	"asfstack/internal/mem"
)

// TestDirTableGrowthPreservesState: inserting past the load-factor limit
// rehashes the page index; coherence state recorded before the growth must
// be found intact afterwards. The table counts pages, and dirMinSlots*3/4
// new pages force a grow, so dirMinSlots*2 distinct pages force two.
func TestDirTableGrowthPreservesState(t *testing.T) {
	var d dirTable
	d.init()
	n := dirMinSlots * 2 // guarantees two growth steps
	// One line per page, at a different offset in each page.
	lineOf := func(i int) mem.Addr { return mem.Addr(i*mem.PageSize + i%64*mem.LineSize) }
	for i := 0; i < n; i++ {
		line := lineOf(i)
		s := d.getOrInsert(line)
		if s.owner != -1 || s.holders != 0 {
			t.Fatalf("line %v: fresh state = %+v, want neutral", line, *s)
		}
		s.owner = int8(i % 8)
		s.holders = uint64(i)
	}
	for i := 0; i < n; i++ {
		line := lineOf(i)
		s := d.getOrInsert(line)
		if s.owner != int8(i%8) || s.holders != uint64(i) {
			t.Fatalf("line %v: state after growth = %+v, want {holders:%d owner:%d}",
				line, *s, i, i%8)
		}
	}
	if d.used != n {
		t.Fatalf("used = %d pages, want %d", d.used, n)
	}
	if len(d.slots) < dirMinSlots*4 {
		t.Fatalf("index has %d slots after %d pages, want at least two growths", len(d.slots), n)
	}
}

// TestDirTableLineZero: line 0 is a real address (the key encoding must not
// confuse it with an empty slot).
func TestDirTableLineZero(t *testing.T) {
	var d dirTable
	d.init()
	s := d.getOrInsert(0)
	s.owner = 3
	if got := d.getOrInsert(0); got.owner != 3 {
		t.Fatalf("line 0 state lost: %+v", *got)
	}
	if d.used != 1 {
		t.Fatalf("used = %d, want 1", d.used)
	}
}

// TestCoherenceSurvivesDirGrowth drives growth through the public API:
// ownership recorded early must still trigger a cache-to-cache transfer
// after hundreds of other pages have been tracked.
func TestCoherenceSurvivesDirGrowth(t *testing.T) {
	h := New(2, Barcelona())
	line := mem.Addr(0x4000)
	h.Access(0, line, true) // core 0 owns the line dirty
	for i := 0; i < dirMinSlots*2; i++ {
		h.Access(1, mem.Addr(0x800000+i*mem.PageSize), false)
	}
	r := h.Access(1, line, false)
	if r.Level != Remote {
		t.Fatalf("dirty line served from %v after directory growth, want remote", r.Level)
	}
}
