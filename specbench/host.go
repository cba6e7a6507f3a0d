package main

import (
	"crypto/sha256"
	"math/rand/v2"
	"runtime/metrics"
	"time"
)

// memWatch samples the Go heap on a short ticker while a sample runs, so
// the sample's peak shows without stopping the world the way
// runtime.ReadMemStats would.
type memWatch struct {
	stop, done chan struct{}
	base, peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func readHeap() uint64 {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// readGC returns the bytes allocated and the GC cycles completed so far.
func readGC() (allocs, cycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func startMemWatch() *memWatch {
	m := &memWatch{stop: make(chan struct{}), done: make(chan struct{})}
	m.base = readHeap()
	m.peak = m.base
	go func() {
		defer close(m.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				m.peak = max(m.peak, readHeap())
			}
		}
	}()
	return m
}

// finish stops the sampler, waits for it to exit and returns the heap's
// peak above the live heap at the start, in MiB.
func (m *memWatch) finish() float64 {
	close(m.stop)
	<-m.done
	m.peak = max(m.peak, readHeap())
	return float64(m.peak-m.base) / (1 << 20)
}

// hostRef is a fixed compute-and-memory loop timed once per sample: sha256
// over 4 MiB and a dependent random walk over a 16 MiB cycle. Its time
// moves only with the host, so a sample whose wall time jumps while the
// reference stays put points at the program, and one where both jump
// points at a noisy neighbour.
type hostRef struct {
	buf  []byte
	next []uint32
}

func newHostRef() *hostRef {
	r := rand.New(rand.NewPCG(1, 2))
	h := &hostRef{buf: make([]byte, 4<<20), next: make([]uint32, 4<<20)}
	for i := range h.buf {
		h.buf[i] = byte(r.Uint32())
	}
	// Sattolo's shuffle: one cycle through every slot, so the walk never
	// settles into a cache-resident loop.
	for i := range h.next {
		h.next[i] = uint32(i)
	}
	for i := len(h.next) - 1; i > 0; i-- {
		j := r.IntN(i)
		h.next[i], h.next[j] = h.next[j], h.next[i]
	}
	return h
}

// sink keeps the reference loop's result live.
var sink uint32

// timeMS runs the loop once and returns its wall time in milliseconds.
func (h *hostRef) timeMS() float64 {
	t0 := time.Now()
	sum := sha256.Sum256(h.buf)
	i := uint32(sum[0])
	for range 1 << 18 {
		i = h.next[i]
	}
	sink = i
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
