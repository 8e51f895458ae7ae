package cache

import (
	"testing"

	"asfstack/internal/mem"
)

// scanTLB is the reference TLB: a set-associative array whose lookups scan
// the set and whose victim is the first invalid way, else the first way
// with the smallest lastUse stamp. It is the straightforward model the
// list representation of tlbArray must reproduce exactly.
type scanTLB struct {
	ents    []scanTLBEntry
	assoc   int
	setMask mem.Addr
	last    int // slot of the most recent stamp, -1 if none
}

type scanTLBEntry struct {
	page    mem.Addr
	valid   bool
	lastUse uint64
}

func newScanTLB(entries, assoc int) *scanTLB {
	nSets := entries / assoc
	if nSets == 0 {
		nSets = 1
	}
	p := 1
	for p < nSets {
		p <<= 1
	}
	return &scanTLB{ents: make([]scanTLBEntry, p*assoc), assoc: assoc, setMask: mem.Addr(p - 1), last: -1}
}

func (t *scanTLB) set(page mem.Addr) int { return int((page>>mem.PageShift)&t.setMask) * t.assoc }

// find returns page's slot, or -1.
func (t *scanTLB) find(page mem.Addr) int {
	s := t.set(page)
	for i := s; i < s+t.assoc; i++ {
		if t.ents[i].valid && t.ents[i].page == page {
			return i
		}
	}
	return -1
}

func (t *scanTLB) stamp(slot int, now uint64) {
	t.ents[slot].lastUse = now
	t.last = slot
}

func (t *scanTLB) insert(page mem.Addr, now uint64) (victim mem.Addr, evicted bool) {
	s := t.set(page)
	slot := -1
	for i := s; i < s+t.assoc; i++ {
		if !t.ents[i].valid {
			slot = i
			break
		}
		if slot < 0 || t.ents[i].lastUse < t.ents[slot].lastUse {
			slot = i
		}
	}
	if t.ents[slot].valid {
		victim, evicted = t.ents[slot].page, true
	}
	t.ents[slot] = scanTLBEntry{page: page, valid: true, lastUse: now}
	t.last = slot
	return victim, evicted
}

func (t *scanTLB) flush() {
	for i := range t.ents {
		t.ents[i] = scanTLBEntry{}
	}
	t.last = -1
}

// fuzzPage maps a byte to one of 96 pages: 12 columns of 8 pages whose
// page numbers differ by 128, so they collide in one set of a 128-set TLB
// and the set-associative geometry sees evictions too.
func fuzzPage(b byte) mem.Addr {
	p := int(b) % 96
	return mem.Addr((p&7)<<7|p>>3) << mem.PageShift
}

// checkTLBOps runs ops, two bytes per operation, against a tlbArray and a
// scanTLB of the same geometry, failing on the first difference in a hit,
// a victim or the MRU entry (page and slot).
func checkTLBOps(t *testing.T, entries, assoc int, ops []byte) {
	var got tlbArray
	got.init(entries, assoc)
	want := newScanTLB(entries, assoc)
	now := uint64(0)
	for i := 0; i+1 < len(ops); i += 2 {
		now++
		kind, page := ops[i]%16, fuzzPage(ops[i+1])
		switch {
		case kind < 10: // one translated access: lookup, fill on a miss
			hit := got.lookup(page, now)
			slot := want.find(page)
			if hit != (slot >= 0) {
				t.Fatalf("op %d: lookup(%v) hit=%v, reference %v", i/2, page, hit, slot >= 0)
			}
			if hit {
				want.stamp(slot, now)
				break
			}
			v, ev := got.insert(page, now)
			wv, wev := want.insert(page, now)
			if v != wv || ev != wev {
				t.Fatalf("op %d: insert(%v) evicted (%v, %v), reference (%v, %v)", i/2, page, v, ev, wv, wev)
			}
		case kind < 15: // lookup only
			hit := got.lookup(page, now)
			slot := want.find(page)
			if hit != (slot >= 0) {
				t.Fatalf("op %d: lookup(%v) hit=%v, reference %v", i/2, page, hit, slot >= 0)
			}
			if hit {
				want.stamp(slot, now)
			}
		default:
			got.flush()
			want.flush()
		}
		if (got.last == nil) != (want.last < 0) || (got.last != nil &&
			(tlbSlot(&got, got.last) != want.last || got.last.tag != tlbKey(want.ents[want.last].page))) {
			t.Fatalf("op %d: MRU entry differs from the reference", i/2)
		}
	}
}

// tlbSlot returns the index of e in t.ents, or -1.
func tlbSlot(t *tlbArray, e *tlbEntry) int {
	for i := range t.ents {
		if &t.ents[i] == e {
			return i
		}
	}
	return -1
}

// FuzzTLBMatchesScanLRU checks tlbArray against the scan-based reference
// at the L1 TLB's geometry (48 entries, fully associative: the list
// representation) and the L2 TLB's (512 entries, 4-way: the scan).
func FuzzTLBMatchesScanLRU(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 1, 15, 0, 0, 1})
	// Cycle through 64 pages twice: every access past the 48th evicts.
	cyc := make([]byte, 0, 256)
	for i := 0; i < 128; i++ {
		cyc = append(cyc, 0, byte(i%64))
	}
	f.Add(cyc)
	f.Add([]byte{0, 5, 12, 0, 0, 6, 14, 0, 0, 5, 14, 0, 15, 0, 14, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkTLBOps(t, 48, 48, ops)
		checkTLBOps(t, 512, 4, ops)
	})
}
