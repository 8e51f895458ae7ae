package trace_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"asfstack"
	"asfstack/internal/mem"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// lifecycleStreamGolden pins, per runtime, the SHA-256 of the three
// transaction lifecycle streams of lifecycleCell: the sim trace (the input
// of trace.Analyze and the Chrome export), every flight-recorder event (the
// input of tmprof) and the commit-hook order (the litmus serialization).
// Re-pin only when a stream is meant to change, and say which and why.
var lifecycleStreamGolden = map[string]string{
	"LLB-8":         "df2b38c51d735a4087715ea6389d9f07e9a24b1389b0ef53b3bb7d27b0f5d77e",
	"LLB-256":       "0158c5d71a816ef5a30531b845ff996ebfde410ce29abf9a431c003cc4d4aaaa",
	"LLB-8 w/ L1":   "3ffea0501e2dc682982f11eb84bd1b437710e7c8c71bf6e8525b9794150989a8",
	"LLB-256 w/ L1": "0158c5d71a816ef5a30531b845ff996ebfde410ce29abf9a431c003cc4d4aaaa",
	"STM":           "1fbe81a975dd014b14f8f05d0cf455c2bca1443eb8d23225b8e8fc769cbc8942",
	"HyTM-8":        "25b45892c0eae07c221f523d6e3019d12c97af00c420b7f9805386cd6f8ff1b9",
	"HyTM-256":      "55c5b1367a634925f96078f489dd57eb1ba5174811db13e68ae6f89c28ba8f83",
	"Cohorts":       "3b89b3abc172f819cd7cb05214a14a3f7a9a2faff40dbb40c96d3ef6c951f302",
	"Cohorts-turbo": "624d693ab81a1fc51805bea8633bb89206cc4ae773c43103678a7cabbd32e040",
	"Adaptive-8":    "328f6ffb571d68bf0c41860543e1a23d3069fa6aa1548c0bb44d35d342b0875c",
	"Adaptive-256":  "3a6b52143f090e37abe5777dba5f71e33c707c6c2387ee6e3483391b380eadfc",
	"Sequential":    "5cce614264a42164f6e00e4957a4a2ffcd0ccfdd2ef63764a95a7492401575e6",
}

// lifecycleCell runs a small contended counter cell on rt with tracing on,
// the flight recorder installed and a commit hook, and returns the hash of
// the three streams plus the commit counts each of them saw.
//
// The cell reaches every lifecycle path: four cores increment lines of a
// 16-line table; every fifth transaction touches 12 lines (over LLB-8's
// capacity), every fourth allocates (pool refills), and every seventeenth
// asks for irrevocability.
func lifecycleCell(t *testing.T, rt string) (sum string, traced, recorded, hooked, stats uint64) {
	t.Helper()
	cores := 4
	if rt == "Sequential" {
		cores = 1
	}
	const lines, ops = 16, 60
	s := asfstack.New(asfstack.Options{Cores: cores, Runtime: rt, Profile: true, ProfileRing: 1 << 12})
	base := s.AllocShared(lines * mem.LineSize)
	var hooks []byte
	s.RT.(tm.HookableRuntime).SetCommitHook(func(core int, serial bool) {
		b := byte(0)
		if serial {
			b = 1
		}
		hooks = append(hooks, byte(core), b)
		hooked++
	})
	s.BeginMeasured()
	s.M.EnableTrace()
	s.M.TraceEvents()
	s.Parallel(cores, func(c *sim.CPU) {
		rng := c.Rand()
		for i := 0; i < ops; i++ {
			width := 1
			if i%5 == 4 {
				width = 12
			}
			first := rng.Intn(lines)
			alloc, irrevocable := i%4 == 1, i%17 == 9
			s.Atomic(c, func(tx tm.Tx) {
				tx.CPU().Exec(40)
				if irrevocable {
					if ir, ok := tx.(tm.Irrevocably); ok {
						ir.BecomeIrrevocable()
					}
				}
				if alloc {
					tx.Store(tx.Alloc(8<<10), 1)
				}
				for k := 0; k < width; k++ {
					a := base + mem.Addr((first+k)%lines*mem.LineSize)
					tx.Store(a, tx.Load(a)+1)
				}
			})
		}
	})

	h := sha256.New()
	var buf []byte
	put := func(vs ...uint64) {
		buf = buf[:0]
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		h.Write(buf)
	}
	evs := s.M.TraceEvents()
	put(uint64(len(evs)))
	for _, e := range evs {
		put(uint64(e.Core), e.Time, uint64(e.Kind), e.Arg)
		if e.Kind == sim.TraceTxCommit {
			traced++
		}
	}
	if p := s.TxProfile(); p != nil {
		for _, cl := range p.Cores {
			if cl.Recorded != uint64(len(cl.Events)) {
				t.Fatalf("%s: core %d ring wrapped (%d recorded, %d kept)", rt, cl.Core, cl.Recorded, len(cl.Events))
			}
			put(uint64(cl.Core), cl.Recorded)
			for _, e := range cl.Events {
				stm := uint64(0)
				if e.STM {
					stm = 1
				}
				put(e.Time, uint64(e.Kind), uint64(e.Path), uint64(e.Cause), e.Code, stm,
					uint64(int64(e.Aborter)), uint64(e.Addr), uint64(e.Reads), uint64(e.Writes), e.Cycles)
			}
		}
		recorded = p.Summary.Commits
	}
	put(uint64(len(hooks)))
	h.Write(hooks)

	total := s.TotalStats()
	stats = total.Commits
	var sumLines mem.Word
	for i := 0; i < lines; i++ {
		sumLines += s.M.Mem.Load(base + mem.Addr(i*mem.LineSize))
	}
	var want mem.Word
	for i := 0; i < ops; i++ {
		if i%5 == 4 {
			want += 12
		} else {
			want++
		}
	}
	if sumLines != want*mem.Word(cores) {
		t.Fatalf("%s: counters sum to %d, want %d", rt, sumLines, want*mem.Word(cores))
	}
	return hex.EncodeToString(h.Sum(nil)), traced, recorded, hooked, stats
}

// TestLifecycleStreamGolden pins the lifecycle streams of every runtime
// byte for byte (amd64 only, like TestExperimentSimGolden: the adaptive
// selector's float rates may round differently where multiply-adds fuse),
// and checks on every platform that each stream sees every commit once.
func TestLifecycleStreamGolden(t *testing.T) {
	for _, rt := range asfstack.RuntimeNames {
		t.Run(rt, func(t *testing.T) {
			sum, traced, recorded, hooked, stats := lifecycleCell(t, rt)
			if traced != stats || recorded != stats || hooked != stats {
				t.Errorf("commits: %d traced, %d recorded, %d hooked, %d in Stats",
					traced, recorded, hooked, stats)
			}
			if runtime.GOARCH != "amd64" {
				return
			}
			if want := lifecycleStreamGolden[rt]; sum != want {
				t.Errorf("lifecycle streams hash %s, pinned %s", sum, want)
			}
		})
	}
}
