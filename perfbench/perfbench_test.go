package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
	}
	for _, m := range append(slices.Clone(endToEnd), perLayer...) {
		check(m.name)
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: unit %q does not match %s", m.name, m.unit, unitRE)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better = %q", m.name, m.better)
		}
	}
}

// Every package under internal/ must fold to a named layer, so a new
// package cannot land in "other" unnoticed.
func TestLayerTableCoversInternal(t *testing.T) {
	dirs, err := os.ReadDir(filepath.Join("..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		gofiles, _ := filepath.Glob(filepath.Join("..", "internal", d.Name(), "*.go"))
		if len(gofiles) == 0 {
			continue
		}
		l, ok := layerOf[d.Name()]
		if !ok {
			t.Errorf("internal/%s has no entry in layerOf", d.Name())
		} else if !slices.Contains(hostLayers, l) {
			t.Errorf("internal/%s folds to %q, not one of %v", d.Name(), l, hostLayers)
		}
	}
	for _, l := range hostLayers {
		if _, ok := hostShareValues(nil)[shareName(l)]; !ok {
			t.Errorf("layer %q has no share metric", l)
		}
	}
}

// Two cores interleaved on one host thread: same-core gaps go to the
// innermost open span, cross-core gaps to the hand-off.
func TestSpanFoldTwoCores(t *testing.T) {
	f := newSpanFold(2)
	for _, e := range []struct {
		core  int
		t     int64
		k     spanKind
		begin bool
	}{
		{0, 0, spanAtomic, true},
		{0, 10, spanBarrier, true},  // core 0 atomic self +10
		{0, 15, spanBarrier, false}, // core 0 barrier +5
		{1, 20, spanAtomic, true},   // hand-off +5
		{1, 30, spanBarrier, true},  // core 1 atomic self +10
		{0, 32, spanBarrier, true},  // hand-off +2 (core 1's barrier still open)
		{0, 40, spanBarrier, false}, // core 0 barrier +8
		{0, 41, spanAtomic, false},  // core 0 atomic self +1
		{1, 50, spanBarrier, false}, // hand-off +9
		{1, 52, spanAtomic, false},  // core 1 atomic self +2
		{1, 60, spanAtomic, true},   // core 1 outside any span +8
		{1, 61, spanAtomic, false},  // core 1 atomic self +1
	} {
		f.event(e.core, e.t, e.k, e.begin)
	}
	if got, want := f.self, [numSpanKinds]int64{24, 13}; got != want {
		t.Errorf("self = %v, want %v", got, want)
	}
	if got, want := f.calls, [numSpanKinds]uint64{3, 3}; got != want {
		t.Errorf("calls = %v, want %v", got, want)
	}
	if f.handoff != 16 || f.switches != 3 || f.outside != 8 {
		t.Errorf("handoff %d switches %d outside %d, want 16 3 8", f.handoff, f.switches, f.outside)
	}
	if sum := f.self[0] + f.self[1] + f.handoff + f.outside; sum != 61 {
		t.Errorf("folded %d ns of 61", sum)
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"asfstack/internal/cache.(*Hierarchy).Access":       "asfstack/internal/cache",
		"asfstack.(*Stack).Parallel.func1":                  "asfstack",
		"iter.Pull[go.shape.struct {},asfstack/internal/x]": "iter",
		"runtime.coroswitch_m":                              "runtime",
		"main.(*fwdTx).Load":                                "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSampleLayer(t *testing.T) {
	for _, c := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"runtime.memmove", "asfstack/internal/cache.(*Hierarchy).Access", "asfstack/internal/sim.(*CPU).Load", "iter.Pull.func1"}, "cache"},
		{[]string{"runtime.coroswitch_m", "runtime.mcall", "iter.Pull.func2", "asfstack/internal/sim.(*CPU).acquire"}, "sim.handoff"},
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "asfstack/internal/stm.(*Tx).Store"}, "host.gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "host.gc"},
		{[]string{"asfstack/internal/asf.(*System).onAccess", "asfstack/internal/sim.(*CPU).access"}, "asf"},
		{[]string{"asfstack/internal/mem.(*Memory).Load"}, "setup"},
		{[]string{"runtime.futex", "runtime.notesleep"}, "other"},
	} {
		if got := sampleLayer(c.stack); got != c.want {
			t.Errorf("sampleLayer(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spin(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x = x*31 + i
	}
	return x
}

var sink int

// A real runtime/pprof profile decodes, and its samples fold into layers
// whose shares sum to 1.
func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for begin := time.Now(); time.Since(begin) < 500*time.Millisecond; {
		sink += spin(1 << 20)
	}
	pprof.StopCPUProfile()
	counts := map[string]int64{}
	n, err := foldProfile(buf.Bytes(), counts)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Skip("no samples taken")
	}
	if counts["bench"] == 0 {
		t.Errorf("no samples in the benchmark's own spin loop: %v", counts)
	}
	var sum float64
	for _, v := range hostShareValues(counts) {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("host shares sum to %g", sum)
	}
}

// BENCHMARK.json must describe exactly the workloads and metrics the
// program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []jm                         `json:"end_to_end"`
		PerLayer  []jm                         `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	compare := func(kind string, got []jm, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, program has %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, m.name, m.unit, m.better)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound present = %v", kind, g.Name, g.Bound != nil)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
}

// The forwarding runtime and its spans must not perturb the simulation:
// a traced simulation reproduces the untraced one's results exactly,
// and both pass the workload's output checks.
func TestTracedSimulationMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		plain, err := w.rep(7, hooks{})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		fold := newSpanFold(w.cores)
		traced, err := w.rep(7, hooks{fold: fold})
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !sameSim(plain.sim, traced.sim) {
			t.Errorf("%s: traced simulated results differ from untraced", w.name)
		}
		if w.name != "server-adaptive-2x8" && fold.calls[spanBarrier] == 0 {
			t.Errorf("%s: no barrier spans recorded", w.name)
		}
	}
}

// The reference walk must visit every slot once per cycle, so that a pass
// measures refSteps distinct loads rather than a short loop that caches
// would hold.
func TestRefRingIsOneCycle(t *testing.T) {
	i, n := refRing[0], 1
	for ; i != 0; n++ {
		i = refRing[i]
	}
	if n != refWords {
		t.Errorf("cycle through slot 0 has %d slots, want %d", n, refWords)
	}
	if s := calibrated(2, 0.02); s != 1 {
		t.Errorf("calibrated(2 s, 20 ms pass) = %g, want 1", s)
	}
}
