package cache

import "asfstack/internal/mem"

// dirTable is the coherence directory: lineState values stored in
// per-page blocks of 64, found through an open-addressed page → block
// index. Neighbouring lines share a block, and so share host cache lines,
// and a run of accesses within one page resolves through the last-page
// shortcut without probing the index at all.
//
// Invariants the rest of the hierarchy relies on:
//
//   - Entries are never deleted (a line whose holders mask drains to zero
//     simply stays with neutral state).
//   - Pointers returned by getOrInsert never move: blocks are carved from
//     slabs that are never reallocated, and growing the index moves only
//     block pointers.
//   - The table is never iterated, so slot order cannot leak into simulated
//     timing (the arrays' forEach keeps the same determinism property).
type dirTable struct {
	slots []dirSlot
	used  int  // pages tracked
	shift uint // 64 - log2(len(slots)); used by the multiplicative hash

	lastKey uint64 // key of the most recent lookup, 0 before the first
	lastBlk *dirBlock

	slab     []dirBlock // blocks not yet handed out
	nextSlab int        // size of the slab after this one
}

// dirBlock is the state of one page's lines, indexed by line-in-page.
type dirBlock [mem.PageSize / mem.LineSize]lineState

// dirSlot is one index slot. Pages are 4 KB aligned, so page|1 is never
// zero and never collides with another page: key==0 means empty.
type dirSlot struct {
	key uint64
	blk *dirBlock
}

// dirMinSlots is the initial index size and dirMinSlab the initial slab
// size. Slabs grow fourfold, so the number of slab allocations stays
// logarithmic in the pages tracked while at least about a quarter of the
// blocks allocated are in use.
const (
	dirMinBits  = 8
	dirMinSlots = 1 << dirMinBits
	dirMinSlab  = 16
)

// fibMult is 2^64 / phi, the standard multiplicative-hashing constant: the
// high bits of key*fibMult are well mixed even for sequential keys.
const fibMult = 0x9E3779B97F4A7C15

func (d *dirTable) init() {
	*d = dirTable{
		slots:    make([]dirSlot, dirMinSlots),
		shift:    64 - dirMinBits,
		nextSlab: dirMinSlab,
	}
}

// getOrInsert returns the state for line, creating neutral state (no
// holders, no owner) for every line of its page on the page's first touch.
func (d *dirTable) getOrInsert(line mem.Addr) *lineState {
	key := uint64(line.Page()) | 1
	i := (line & (mem.PageSize - 1)) >> mem.LineShift
	if key == d.lastKey {
		return &d.lastBlk[i]
	}
	blk := d.block(key)
	d.lastKey, d.lastBlk = key, blk
	return &blk[i]
}

// block returns the block for the page keyed key, adding it if absent.
func (d *dirTable) block(key uint64) *dirBlock {
	mask := uint64(len(d.slots) - 1)
	for i := (key * fibMult) >> d.shift; ; i = (i + 1) & mask {
		s := &d.slots[i]
		if s.key == key {
			return s.blk
		}
		if s.key == 0 {
			if d.used >= len(d.slots)*3/4 {
				d.grow()
				return d.block(key)
			}
			d.used++
			s.key, s.blk = key, d.newBlock()
			return s.blk
		}
	}
}

// newBlock carves a neutral block from the current slab, starting a new
// slab when it is used up.
func (d *dirTable) newBlock() *dirBlock {
	if len(d.slab) == 0 {
		d.slab = make([]dirBlock, d.nextSlab)
		d.nextSlab *= 4
	}
	b := &d.slab[0]
	d.slab = d.slab[1:]
	for i := range b {
		b[i].owner = -1
	}
	return b
}

func (d *dirTable) grow() {
	old := d.slots
	d.slots = make([]dirSlot, len(old)*2)
	d.shift--
	mask := uint64(len(d.slots) - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := (s.key * fibMult) >> d.shift
		for d.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		d.slots[i] = s
	}
}
