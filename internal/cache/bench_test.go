package cache

import (
	"testing"

	"asfstack/internal/mem"
)

// accessPattern is one steady-state access stream that lands every access
// on a single path of Access; op performs the i-th access.
type accessPattern struct {
	name  string
	cfg   func() Config
	cores int
	op    func(h *Hierarchy, i int) AccessResult
	want  Level // level every steady-state access must be served from
}

// Stride constants for the Barcelona geometry: lines 32 KB apart share an
// L1 and an L2 set; lines 128 KB apart also share an L3 set.
const (
	l2SetStride = 32 << 10
	l3SetStride = 128 << 10
)

var accessPatterns = []accessPattern{
	{
		// Loads cycling over 16 lines of one page: L1 and L1-TLB hits.
		name: "l1hit", cfg: Barcelona, cores: 1, want: L1,
		op: func(h *Hierarchy, i int) AccessResult {
			return h.Access(0, mem.Addr(0x10000+(i&15)*mem.LineSize), false)
		},
	},
	{
		// Stores cycling over 16 lines this core already holds dirty.
		name: "l1store-dirty", cfg: Barcelona, cores: 1, want: L1,
		op: func(h *Hierarchy, i int) AccessResult {
			return h.Access(0, mem.Addr(0x10000+(i&15)*mem.LineSize), true)
		},
	},
	{
		// Three lines in one 2-way L1 set: every load misses L1 (LRU
		// thrash) and hits L2.
		name: "l2hit", cfg: Barcelona, cores: 1, want: L2,
		op: func(h *Hierarchy, i int) AccessResult {
			return h.Access(0, mem.Addr(0x400000+(i%3)*l2SetStride), false)
		},
	},
	{
		// Twenty lines in one 16-way L2 set, spread over four L3 sets:
		// every load misses L1 and L2 and hits L3.
		name: "l3hit", cfg: Barcelona, cores: 1, want: L3,
		op: func(h *Hierarchy, i int) AccessResult {
			return h.Access(0, mem.Addr(0x400000+(i%20)*l2SetStride), false)
		},
	},
	{
		// Forty lines in one 16-way L3 set (L2 victims are written back to
		// L3, so twenty would still hit there): every load goes to RAM.
		name: "ram", cfg: Barcelona, cores: 1, want: RAM,
		op: func(h *Hierarchy, i int) AccessResult {
			return h.Access(0, mem.Addr(0x4000000+(i%40)*l3SetStride), false)
		},
	},
	{
		// One line on each of 64 pages, each in its own L1 set: the data
		// hits L1 but 64 pages overflow the 48-entry L1 TLB, so every load
		// misses it and hits the L2 TLB.
		name: "tlb2hit", cfg: Barcelona, cores: 1, want: L1,
		op: func(h *Hierarchy, i int) AccessResult {
			p := i & 63
			return h.Access(0, mem.Addr(0x1000000+p*mem.PageSize+p*mem.LineSize), false)
		},
	},
	{
		// Cores 0 and 8 of a 2x8 machine take turns storing to one line:
		// each store pulls the line dirty from the other socket.
		name: "xsock-miss", cores: 16, want: Remote,
		cfg: func() Config {
			cfg := Barcelona()
			cfg.Sockets = 2
			return cfg
		},
		op: func(h *Hierarchy, i int) AccessResult {
			return h.Access((i&1)*8, 0x20000, true)
		},
	},
}

// warmOps is how many ops warm runs; measured ops continue from there so
// that the cyclic patterns keep their phase.
const warmOps = 256

// warm builds the pattern's hierarchy and runs enough ops to reach its
// steady state.
func (p accessPattern) warm() *Hierarchy {
	h := New(p.cores, p.cfg())
	for i := 0; i < warmOps; i++ {
		p.op(h, i)
	}
	return h
}

func BenchmarkAccess(b *testing.B) {
	for _, p := range accessPatterns {
		b.Run(p.name, func(b *testing.B) {
			h := p.warm()
			b.ReportAllocs()
			b.ResetTimer()
			for i := warmOps; i < warmOps+b.N; i++ {
				p.op(h, i)
			}
		})
	}
}

// TestAccessPatternsSteadyState checks that each benchmark pattern is
// served from the level its name promises, and that the TLB-bound one
// really misses the L1 TLB and hits the L2 TLB.
func TestAccessPatternsSteadyState(t *testing.T) {
	for _, p := range accessPatterns {
		h := p.warm()
		before := h.Stats(0)
		for i := warmOps; i < warmOps+64; i++ {
			if r := p.op(h, i); r.Level != p.want {
				t.Fatalf("%s: op %d served from %v, want %v", p.name, i, r.Level, p.want)
			}
		}
		if p.name == "tlb2hit" {
			st := h.Stats(0)
			if st.TLB1Miss-before.TLB1Miss != 64 || st.TLBWalks != before.TLBWalks {
				t.Fatalf("tlb2hit: %d L1-TLB misses and %d walks over 64 loads, want 64 and 0",
					st.TLB1Miss-before.TLB1Miss, st.TLBWalks-before.TLBWalks)
			}
		}
	}
}

// TestAccessAllocsNothing pins zero host allocations per steady-state
// Access on every benchmark pattern.
func TestAccessAllocsNothing(t *testing.T) {
	for _, p := range accessPatterns {
		h := p.warm()
		i := warmOps
		if n := testing.AllocsPerRun(1000, func() { p.op(h, i); i++ }); n != 0 {
			t.Errorf("%s: %.1f allocs per Access, want 0", p.name, n)
		}
	}
}
