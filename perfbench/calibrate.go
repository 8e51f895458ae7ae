package main

import (
	"math/rand"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: other tenants' load changed
// the speed of one simulation by up to 2x within minutes, in phases of a
// few seconds, so raw host times of two runs of the same code differed by
// more than any useful bound. Most of that change shows equally in the
// time of a dependent walk through memory, which this file measures right
// before and after every simulation. The end-to-end host times are scaled
// by refNominal over that reference time: they read as seconds on a host
// where one reference pass takes refNominal, and a change to the program
// moves them as much as it moves the raw times.

const (
	refWords = 1 << 20 // 4 MiB of uint32 links, larger than a core's L2
	refSteps = 1 << 17 // one pass: dependent loads along the cycle
	// refNominal is the time one pass is scaled to (about a quiet pass on
	// a 2 GHz Xeon).
	refNominal = 10 * time.Millisecond
)

// refRing is one random cycle through refWords slots. It lives outside
// the Go heap so that it does not change the garbage collector's pace.
var refRing = newRefRing()

func newRefRing() []uint32 {
	b, err := syscall.Mmap(-1, 0, refWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("perfbench: reference buffer: " + err.Error())
	}
	ring := unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), refWords)
	for i := range ring {
		ring[i] = uint32(i)
	}
	// Sattolo's shuffle: the result is a single cycle through every slot.
	rng := rand.New(rand.NewSource(1))
	for i := refWords - 1; i > 0; i-- {
		j := rng.Intn(i)
		ring[i], ring[j] = ring[j], ring[i]
	}
	return ring
}

var refSink uint32

// refPass walks refSteps links of the ring and returns the host seconds
// it took.
func refPass() float64 {
	t := time.Now()
	i := uint32(0)
	for k := 0; k < refSteps; k++ {
		i = refRing[i]
	}
	refSink += i
	return time.Since(t).Seconds()
}

// calibrated scales host seconds measured next to a reference pass of
// refS seconds to seconds on a host where the pass takes refNominal.
func calibrated(s, refS float64) float64 {
	return s * refNominal.Seconds() / refS
}
