package main

import (
	"encoding/binary"
	"math"
	"sync"
	"syscall"
	"time"
)

// The host probe measures how fast the host's memory system is at this
// moment: a chain of dependent loads at pseudo-random offsets of a table far
// larger than any cache, so every load is a miss all the way to memory.
//
// It exists because the reference box is a small VM on a shared host, and
// what its neighbours do moves every workload of the suite by 20–40 % for
// seconds to tens of minutes at a time, with identical op counts and rounds
// per op (README.md, "The host probe"). The probe moves with them: over 100
// back-to-back runs of small-uniform the slice times and the probe readings
// beside them correlate at 0.8, the run medians at 0.93. Each slice is
// therefore read through the probe readings taken right before and right
// after it: its times are divided by hostFactor, which expresses them at the
// speed of the box when the probe reads probeNominalNs.
const (
	probeBytes = 256 << 20
	// probeLoads per reading: about 8 ms on the reference box.
	probeLoads = 30000
	// probeNominalNs is the reading of the quiet reference box, ns per load.
	probeNominalNs = 270.0
)

type hostProbe struct {
	mem []byte // anonymous mapping, outside the Go heap and heap_mb
	x   uint64 // the chain's state, carried from reading to reading
}

var sharedProbe = sync.OnceValues(func() (*hostProbe, error) { return newHostProbe(probeBytes) })

// newHostProbe maps size bytes (a power of two) and writes every word, so
// that every page is resident and no two loads hit the same zero page.
func newHostProbe(size int) (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	for off := 0; off < size; off += 8 {
		binary.LittleEndian.PutUint64(mem[off:], uint64(off)*0x9e3779b97f4a7c15)
	}
	return &hostProbe{mem: mem, x: 1}, nil
}

func (p *hostProbe) close() error { return syscall.Munmap(p.mem) }

// nsPerLoad takes one reading.
func (p *hostProbe) nsPerLoad() float64 {
	mask := uint64(len(p.mem)-1) &^ 7
	x := p.x
	t0 := time.Now()
	for i := 0; i < probeLoads; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= binary.LittleEndian.Uint64(p.mem[(x>>20)&mask:])
	}
	d := time.Since(t0)
	p.x = x
	return float64(d.Nanoseconds()) / probeLoads
}

// hostFactor is how much longer than on the quiet reference box a slice of
// the workload takes when the probe reads probeNs: (probeNs / nominal) to
// the workload's hostSlope. A reading of 0 (no probe: -quick) gives 1.
func hostFactor(probeNs, slope float64) float64 {
	if probeNs <= 0 {
		return 1
	}
	return math.Pow(probeNs/probeNominalNs, slope)
}
