package cache

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"asfstack/internal/mem"
)

// goldenStreamHashes pins the full observable behaviour of the hierarchy
// under a seeded mixed operation stream: every AccessResult, every
// SetSpecRead outcome, every eviction-hook event (in order) and the final
// per-core Stats and occupancy. Any change to the cache model's host-side
// data structures must leave these hashes exactly as they are; a change to
// the simulated model itself must re-pin them deliberately.
//
// Seeds 1-3 set ASF speculative-read marks; seeds 4 and 5 do not, so their
// dirty lines stay exclusive throughout (see checkDirtyOwnership).
var goldenStreamHashes = map[uint64]uint64{
	1: 0x577c57495093d202,
	2: 0x9ae558e20fb1c2e0,
	3: 0xfff259b014b1ae05,
	4: 0x2d12d23d19b8bbc8,
	5: 0x86e91e947934f9c8,
}

// goldenSpecMarks reports whether seed's stream sets speculative-read marks.
func goldenSpecMarks(seed uint64) bool { return seed <= 3 }

const goldenStreamOps = 30000

// goldenAddr draws an address for core c from a mix of regions chosen to
// reach every path of the model: the core's own hot lines (L1 hits, dirty
// stores), its column of lines 32 KB apart (one L1 and L2 set:
// associativity evictions and L2 victims), 128 pages every core reads
// (L1-TLB misses that hit the L2 TLB, L3 hits), a 16 MB spread of pages
// (walks and RAM fills), and a few lines every core writes (coherence).
func goldenAddr(r *rand.Rand, c int) mem.Addr {
	switch k := r.IntN(100); {
	case k < 40:
		return mem.Addr(0x10000 + c*0x10000 + r.IntN(96)*mem.LineSize + r.IntN(8)*mem.WordSize)
	case k < 55:
		return mem.Addr(0x400000 + r.IntN(24)*(32<<10) + c*mem.LineSize)
	case k < 82:
		return mem.Addr(0x1000000 + r.IntN(128)*mem.PageSize + r.IntN(8)*mem.LineSize)
	case k < 85:
		return mem.Addr(0x8000000 + r.IntN(4096)*mem.PageSize + r.IntN(64)*mem.LineSize)
	default:
		return mem.Addr(0x800 + r.IntN(12)*mem.LineSize)
	}
}

// runGoldenStream drives one seeded stream on a 2x4 hierarchy and returns
// its hash. After every operation (every eighth under -short) it checks
// the ownership invariants of dirty L1 lines.
func runGoldenStream(t *testing.T, seed uint64) uint64 {
	t.Helper()
	cfg := Barcelona()
	cfg.Sockets = 2
	const cores = 8
	h := New(cores, cfg)
	r := rand.New(rand.NewPCG(seed, 0x5EED))
	marks := goldenSpecMarks(seed)
	// The invariant scan walks every L1; -short runs (the race detector's
	// pass in CI) check after every eighth operation instead of each one.
	checkEvery := 1
	if testing.Short() {
		checkEvery = 8
	}
	hs := fnv.New64a()
	var buf []byte
	put := func(vs ...uint64) {
		buf = buf[:0]
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		hs.Write(buf)
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	h.SetEvictHook(func(core int, line mem.Addr, spec bool) {
		put(0xE7, uint64(core), uint64(line), b2u(spec))
	})
	for step := 0; step < goldenStreamOps; step++ {
		c := r.IntN(cores)
		switch k := r.IntN(1000); {
		case k < 580:
			res := h.Access(c, goldenAddr(r, c), false)
			put(0xA1, res.Cycles, uint64(res.Level), b2u(res.TLBMiss))
		case k < 880:
			res := h.Access(c, goldenAddr(r, c), true)
			put(0xA2, res.Cycles, uint64(res.Level), b2u(res.TLBMiss))
		case k < 950:
			a, on := goldenAddr(r, c), r.IntN(4) != 0
			if marks {
				put(0x5E, b2u(h.SetSpecRead(c, a, on)))
			}
		case k < 970:
			h.FlashClearSpecRead(c)
		case k < 997:
			h.Drop(c, goldenAddr(r, c))
		case k < 999:
			h.FlushTLB(c)
		default:
			h.FlushPrivate(c)
		}
		if step%checkEvery == 0 {
			if err := checkDirtyOwnership(h); err != nil {
				t.Fatalf("seed %d, step %d: %v", seed, step, err)
			}
		}
	}
	for c := 0; c < cores; c++ {
		st := h.Stats(c)
		put(st.Loads, st.Stores, st.L1Hits, st.L2Hits, st.L3Hits, st.C2C,
			st.MemFills, st.TLB1Miss, st.TLBWalks, st.Evictions,
			st.XSockHops, st.L3RemoteHits)
		l1, l2 := h.Occupancy(c)
		put(uint64(l1), uint64(l2))
	}
	put(uint64(h.L3Occupancy()))
	return hs.Sum64()
}

// checkDirtyOwnership asserts that every dirty L1 line's directory entry
// names its core as owner and as a holder, and, until a speculative-read
// mark has been lost with its line kept in L2 (Hierarchy.staleHolders), as
// the sole holder: the invariant that lets a store hitting a dirty L1 line
// skip the directory and the write upgrade.
func checkDirtyOwnership(h *Hierarchy) error {
	for c := range h.cores {
		bit := uint64(1) << uint(c)
		for i := range h.cores[c].l1.ents {
			e := &h.cores[c].l1.ents[i]
			if !e.dirty() {
				continue
			}
			ls := h.dir.getOrInsert(e.line())
			if int(ls.owner) != c || ls.holders&bit == 0 || (!h.staleHolders && ls.holders != bit) {
				return fmt.Errorf("core %d dirty L1 line %v: holders=%#x owner=%d, want owner %d and holders %#x (stale holders: %v)",
					c, e.line(), ls.holders, ls.owner, c, bit, h.staleHolders)
			}
		}
	}
	return nil
}

// TestAccessStreamGolden replays seeded operation streams and compares
// their hashes against the pinned values.
func TestAccessStreamGolden(t *testing.T) {
	for seed, want := range goldenStreamHashes {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			if got := runGoldenStream(t, seed); got != want {
				t.Errorf("seed %d: stream hash %#x, want %#x", seed, got, want)
			}
		})
	}
}

// TestDirtyStoreProbesStaleHolder pins the one case in which a store hit on
// a dirty L1 line still owes an invalidation probe. Core 0's spec-marked
// line is displaced from L1 while its L2 already holds it, so the mark is
// reported lost and core 0 leaves the holder mask, but the L2 copy stays.
// Core 1 then stores the line without probing core 0; core 0's L2 hit puts
// it back among the holders next to core 1's dirty copy, and core 1's next
// store must invalidate it.
func TestDirtyStoreProbesStaleHolder(t *testing.T) {
	cfg := Barcelona()
	h := New(2, cfg)
	const x = mem.Addr(0x40000)
	stride := mem.Addr(512 * mem.LineSize) // same L1 set, same L2 set
	h.Access(0, x, false)
	if !h.SetSpecRead(0, x, true) {
		t.Fatal("SetSpecRead failed on a just-accessed line")
	}
	h.Access(0, x+stride, false)
	h.Access(0, x+2*stride, false) // displaces x from core 0's L1 only
	if h.L1Resident(0, x) {
		t.Fatal("x survived a 3-way thrash of a 2-way set")
	}
	h.Access(1, x, true)
	if r := h.Access(0, x, false); r.Level != L2 {
		t.Fatalf("core 0 re-read x from %v, want its stale L2 copy", r.Level)
	}
	r := h.Access(1, x, true)
	if want := cfg.L1Lat + cfg.L1Lat*8; r.Level != L1 || r.Cycles != want {
		t.Fatalf("dirty store hit = %+v, want L1 at %d cycles (hit plus invalidation probe)", r, want)
	}
	if h.L1Resident(0, x) {
		t.Fatal("the store left core 0's copy resident")
	}
}
