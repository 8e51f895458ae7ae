package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Host layers a CPU profile sample folds into. Their shares sum to 1.
var hostLayers = []string{
	"sim", "sim.handoff", "cache", "asf", "tm", "txlib", "workload",
	"observers", "setup", "bench", "host.gc", "other",
}

// layerOf maps each package under internal/ (by directory name) to the
// layer its host time is charged to. The root package is "setup" (it is
// asfstack.New and the Stack plumbing); the benchmark's own package is
// "bench".
var layerOf = map[string]string{
	"sim":      "sim",
	"cache":    "cache",
	"topo":     "cache",
	"asf":      "asf",
	"tm":       "tm",
	"asftm":    "tm",
	"stm":      "tm",
	"hytm":     "tm",
	"cohorts":  "tm",
	"adaptive": "tm",
	"seq":      "tm",
	"elision":  "tm",
	"txlib":    "txlib",
	"dtmc":     "txlib",
	"intset":   "workload",
	"stamp":    "workload",
	"server":   "workload",
	"harness":  "workload",
	"litmus":   "workload",
	"metrics":  "observers",
	"txprof":   "observers",
	"trace":    "observers",
	"mem":      "setup",
}

const modulePath = "asfstack"

// funcPackage returns the import path of a Go symbol name such as
// "asfstack/internal/cache.(*Hierarchy).Access" or "iter.Pull[...].func1".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	dir := ""
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		dir, name = name[:i+1], name[i+1:]
	}
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[:i]
	}
	return dir + name
}

// moduleLayer returns the layer of a function in this repository's module
// (or the benchmark), and false for the Go runtime and standard library.
func moduleLayer(fn string) (string, bool) {
	switch pkg := funcPackage(fn); {
	case pkg == "main" || pkg == modulePath+"/perfbench":
		return "bench", true
	case pkg == modulePath:
		return "setup", true
	case strings.HasPrefix(pkg, modulePath+"/internal/"):
		name := strings.TrimPrefix(pkg, modulePath+"/internal/")
		if l, ok := layerOf[name]; ok {
			return l, true
		}
		return "other", true
	}
	return "", false
}

func isHandoff(fn string) bool {
	return strings.HasPrefix(fn, "runtime.coro") || funcPackage(fn) == "iter"
}

func isGC(fn string) bool {
	if !strings.HasPrefix(fn, "runtime.") {
		return false
	}
	for _, s := range []string{"runtime.gc", "markroot", "scanobject", "scanblock",
		"greyobject", "sweep", "scavenge", "wbBuf"} {
		if strings.Contains(fn, s) {
			return true
		}
	}
	return false
}

// sampleLayer folds one stack (leaf first) to a layer: the innermost frame
// of this module decides, except that a coroutine switch or iter.Pull glue,
// or garbage collection work, reached from it through runtime frames is
// charged to the hand-off or to GC. Stacks with no module frame (GC workers,
// the profiler itself) fold to hand-off, GC, or other.
func sampleLayer(stack []string) string {
	var handoff, gc bool
	for _, fn := range stack {
		if l, ok := moduleLayer(fn); ok {
			switch {
			case handoff:
				return "sim.handoff"
			case gc:
				return "host.gc"
			}
			return l
		}
		handoff = handoff || isHandoff(fn)
		gc = gc || isGC(fn)
	}
	switch {
	case handoff:
		return "sim.handoff"
	case gc:
		return "host.gc"
	}
	return "other"
}

// foldProfile adds the samples of a gzipped pprof CPU profile to counts,
// keyed by layer, and returns the number of samples added.
func foldProfile(data []byte, counts map[string]int64) (int64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, s := range p.samples {
		stack := make([]string, 0, len(s.locs))
		for _, id := range s.locs {
			stack = append(stack, p.locFuncs[id]...)
		}
		counts[sampleLayer(stack)] += s.count
		n += s.count
	}
	return n, nil
}

// profile is the part of a pprof profile.proto message the fold needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location id → function names, innermost first
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

// parseProfile decodes the gzipped protocol buffer runtime/pprof writes.
// Field numbers are those of github.com/google/pprof/proto/profile.proto.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{} // function id → string index
		locLines  = map[uint64][]uint64{}
		rawSample [][]byte
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			rawSample = append(rawSample, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]string{}}
	for id, fns := range locLines {
		names := make([]string, len(fns))
		for i, f := range fns {
			idx, ok := funcName[f]
			if !ok || idx < 0 || idx >= int64(len(strs)) {
				return nil, fmt.Errorf("profile: location %d: bad function %d", id, f)
			}
			names[i] = strs[idx]
		}
		p.locFuncs[id] = names
	}
	for _, b := range rawSample {
		var s sample
		var values []int64
		err := eachField(b, func(num int, v uint64, b []byte) error {
			switch num {
			case 1:
				if b == nil {
					s.locs = append(s.locs, v)
					return nil
				}
				return eachVarint(b, func(v uint64) { s.locs = append(s.locs, v) })
			case 2:
				if b == nil {
					values = append(values, int64(v))
					return nil
				}
				return eachVarint(b, func(v uint64) { values = append(values, int64(v)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		s.count = values[0]
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachField walks the fields of one protobuf message. For varint fields fn
// gets the value and a nil slice; for length-delimited fields, the bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
	}
	return nil
}

// eachVarint walks a packed repeated varint field.
func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
