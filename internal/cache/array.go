package cache

import "asfstack/internal/mem"

// entry is one cache line's bookkeeping. Data values live in mem.Memory;
// the entry only tracks residency, dirtiness, recency, and the ASF
// speculative-read mark used by the hybrid implementation variants.
//
// Lines are 64-byte aligned, so the flags live in the low bits of the tag:
// a way holds line exactly when tag&^(fDirty|fSpec) == line|fValid, one
// compare, and an empty way is the zero tag. Line 0 stays distinct from an
// empty way because its tag carries fValid.
type entry struct {
	tag     uint64
	lastUse uint64
}

const (
	fValid = 1 << iota
	fDirty
	fSpec

	fState = fDirty | fSpec // flags that do not take part in a match
)

func (e *entry) line() mem.Addr           { return mem.Addr(e.tag &^ (mem.LineSize - 1)) }
func (e *entry) valid() bool              { return e.tag&fValid != 0 }
func (e *entry) dirty() bool              { return e.tag&fDirty != 0 }
func (e *entry) specRead() bool           { return e.tag&fSpec != 0 }
func (e *entry) holds(line mem.Addr) bool { return e.tag&^fState == uint64(line)|fValid }

// array is a set-associative cache array with LRU replacement. The ways of
// set s occupy ents[s*assoc : (s+1)*assoc]; lookups scan the (small) set
// directly rather than going through a side map — at 2–16 ways of 16-byte
// entries the scan stays within a few host cache lines and beats hashing.
//
// LRU stamps can tie here (one access may insert into the same L2 or L3
// twice at one tick), so replacement keeps the scan for the first invalid
// way, else the first least-recently-used one.
type array struct {
	ents    []entry
	assoc   int
	setMask mem.Addr
	nValid  int // resident-line count, backing the occupancy gauges
}

func (a *array) init(sizeBytes, assoc int) {
	nSets := sizeBytes / mem.LineSize / assoc
	if nSets == 0 || nSets&(nSets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	*a = array{
		ents:    make([]entry, nSets*assoc),
		assoc:   assoc,
		setMask: mem.Addr(nSets - 1),
	}
}

func (a *array) setFor(line mem.Addr) []entry {
	s := int((line>>mem.LineShift)&a.setMask) * a.assoc
	return a.ents[s : s+a.assoc]
}

// lookup returns the entry for line, or nil.
func (a *array) lookup(line mem.Addr) *entry {
	key := uint64(line) | fValid
	set := a.setFor(line)
	for i := range set {
		if set[i].tag&^fState == key {
			return &set[i]
		}
	}
	return nil
}

// insert places line into its set and returns the slot it filled, plus the
// displaced victim (by value) and true if a valid line was evicted.
func (a *array) insert(line mem.Addr, now uint64) (slot *entry, victim entry, evicted bool) {
	set := a.setFor(line)
	for i := range set {
		e := &set[i]
		if !e.valid() {
			slot = e
			break
		}
		if slot == nil || e.lastUse < slot.lastUse {
			slot = e
		}
	}
	if slot.valid() {
		victim, evicted = *slot, true
	} else {
		a.nValid++
	}
	*slot = entry{tag: uint64(line) | fValid, lastUse: now}
	return slot, victim, evicted
}

// remove invalidates line if present.
func (a *array) remove(line mem.Addr) {
	if e := a.lookup(line); e != nil {
		*e = entry{}
		a.nValid--
	}
}

// forEach visits every valid entry in (set, way) order. Iteration must be
// deterministic: FlushPrivate refills L3 in this order, and hash order
// would leak into L3's LRU state and make measured-phase timings vary from
// run to run.
func (a *array) forEach(fn func(*entry)) {
	for i := range a.ents {
		if a.ents[i].valid() {
			fn(&a.ents[i])
		}
	}
}

// tlbArray is a TLB with LRU replacement over page numbers. It has two
// representations with identical observable behaviour (hits, misses and
// the victim chosen on every insert):
//
//   - Set associative (the L2 TLB): each set is scanned, and LRU is the
//     smallest lastUse stamp. last caches the most recent hit, which
//     skips the scan on the common same-page repeat.
//   - Fully associative with at most tlbListMax entries (the L1 TLB): an
//     inline open-addressed index maps a page to its slot, and an
//     intrusive recency list runs from head (MRU) to tail (LRU), so a
//     lookup, a stamp and a victim choice are all O(1). last is the head.
//
// The list is exact, not an approximation of the scan. Every stamp of a
// TLB comes from one simulated access at a fresh tick, and one access
// stamps a TLB at most once, so stamps are unique and the smallest one is
// always the list tail. Slots are only ever invalidated by a whole flush,
// so the valid slots are always 0..n-1 and the scan's "first invalid
// slot" is always slot n.
type tlbArray struct {
	ents    []tlbEntry
	assoc   int
	setMask mem.Addr
	last    *tlbEntry

	list       bool  // fully associative list representation
	n          int   // list: filled slots, always 0..n-1
	head, tail int16 // list: MRU and LRU slots, -1 when empty
	idx        [tlbIndexSlots]int8
}

// tlbEntry is one translation. tag is page|1 (pages are 4 KB aligned), or
// 0 when empty. prev and next link the recency list.
type tlbEntry struct {
	tag        uint64
	lastUse    uint64
	prev, next int16
}

// tlbListMax bounds the fully associative TLBs kept as a list: the index
// has tlbIndexSlots entries, a load factor of at most one half, and stores
// slot+1 in an int8. Larger fully associative TLBs use the scan.
const (
	tlbListMax    = 64
	tlbIndexBits  = 7
	tlbIndexSlots = 1 << tlbIndexBits
)

func (t *tlbArray) init(entries, assoc int) {
	nSets := entries / assoc
	if nSets == 0 {
		nSets = 1
	}
	// Round set count up to a power of two for masking; fully associative
	// TLBs (assoc == entries) have one set and are unaffected.
	p := 1
	for p < nSets {
		p <<= 1
	}
	*t = tlbArray{
		ents:    make([]tlbEntry, p*assoc),
		assoc:   assoc,
		setMask: mem.Addr(p - 1),
		list:    p == 1 && assoc <= tlbListMax,
	}
	t.flush()
}

func tlbKey(page mem.Addr) uint64 { return uint64(page) | 1 }

// lookup reports whether page is present and, if so, stamps it MRU.
func (t *tlbArray) lookup(page mem.Addr, now uint64) bool {
	key := tlbKey(page)
	if e := t.last; e != nil && e.tag == key {
		e.lastUse = now
		return true
	}
	if t.list {
		_, s := t.find(key)
		if s < 0 {
			return false
		}
		t.toFront(s)
		return true
	}
	set := t.setFor(page)
	for i := range set {
		if set[i].tag == key {
			set[i].lastUse = now
			t.last = &set[i]
			return true
		}
	}
	return false
}

// insert places page, which must not be present, and returns the page it
// displaced, if any.
func (t *tlbArray) insert(page mem.Addr, now uint64) (victim mem.Addr, evicted bool) {
	key := tlbKey(page)
	if t.list {
		var s int16
		if t.n < len(t.ents) {
			s = int16(t.n)
			t.n++
			t.pushFront(s)
		} else {
			s = t.tail
			victim, evicted = mem.Addr(t.ents[s].tag&^1), true
			t.unindex(t.ents[s].tag)
			t.toFront(s)
		}
		t.ents[s].tag = key
		t.index(key, s)
		return victim, evicted
	}
	set := t.setFor(page)
	var slot *tlbEntry
	for i := range set {
		e := &set[i]
		if e.tag == 0 {
			slot = e
			break
		}
		if slot == nil || e.lastUse < slot.lastUse {
			slot = e
		}
	}
	if slot.tag != 0 {
		victim, evicted = mem.Addr(slot.tag&^1), true
	}
	slot.tag, slot.lastUse = key, now
	t.last = slot
	return victim, evicted
}

func (t *tlbArray) flush() {
	for i := range t.ents {
		e := &t.ents[i]
		e.tag, e.lastUse, e.prev, e.next = 0, 0, -1, -1
	}
	t.last = nil
	t.n, t.head, t.tail = 0, -1, -1
	t.idx = [tlbIndexSlots]int8{}
}

func (t *tlbArray) setFor(page mem.Addr) []tlbEntry {
	s := int((page>>mem.PageShift)&t.setMask) * t.assoc
	return t.ents[s : s+t.assoc]
}

// --- list representation ---------------------------------------------------

func tlbHome(key uint64) int { return int((key * fibMult) >> (64 - tlbIndexBits)) }

// find returns key's index position and slot, or slot -1 if absent.
func (t *tlbArray) find(key uint64) (pos int, slot int16) {
	for i := tlbHome(key); ; i = (i + 1) & (tlbIndexSlots - 1) {
		s := t.idx[i]
		if s == 0 {
			return i, -1
		}
		if t.ents[s-1].tag == key {
			return i, int16(s - 1)
		}
	}
}

func (t *tlbArray) index(key uint64, s int16) {
	i, _ := t.find(key)
	t.idx[i] = int8(s + 1)
}

// unindex deletes key with backward-shift deletion (linear probing keeps
// no tombstones): later entries of the probe run move up into the hole
// unless their home position lies cyclically in (hole, position].
func (t *tlbArray) unindex(key uint64) {
	const mask = tlbIndexSlots - 1
	hole, _ := t.find(key)
	for j := (hole + 1) & mask; t.idx[j] != 0; j = (j + 1) & mask {
		home := tlbHome(t.ents[t.idx[j]-1].tag)
		if (j-home)&mask >= (j-hole)&mask {
			t.idx[hole] = t.idx[j]
			hole = j
		}
	}
	t.idx[hole] = 0
}

func (t *tlbArray) pushFront(s int16) {
	e := &t.ents[s]
	e.prev, e.next = -1, t.head
	if t.head >= 0 {
		t.ents[t.head].prev = s
	} else {
		t.tail = s
	}
	t.head = s
	t.last = e
}

// toFront makes slot s, which is linked, the MRU entry.
func (t *tlbArray) toFront(s int16) {
	if s == t.head {
		return
	}
	e := &t.ents[s]
	t.ents[e.prev].next = e.next
	if e.next >= 0 {
		t.ents[e.next].prev = e.prev
	} else {
		t.tail = e.prev
	}
	t.pushFront(s)
}
