package main

import "time"

// The reference probe. The machine the benchmark shares runs the
// simulator's interpreter loops up to 1.5 times faster or slower from one
// minute to the next, as its neighbours come and go; tight arithmetic
// loops barely notice, but branchy, table-driven code does. So between
// units of work, and every refSlice steps of a long Board.Run, the
// benchmark times a fixed piece of branchy Go code that has nothing to do
// with the simulator: a small bytecode interpreter over a 4 MiB table
// that also looks words up in a map. The end-to-end host times are
// reported at the reference speed: scaled by refNominalMS over the median
// probe time of the run. A change to the simulator moves them in full; a
// slower or faster machine moves the probe with them.
//
// The probe allocates nothing: it runs right after collections, where a
// small allocation could land in a freed board's memory and split it.

// refNominalMS is the probe's median time on the machine the baselines
// were measured on (2 vCPUs of a 2.0 GHz Xeon), so reported host times
// read close to that machine's seconds.
const refNominalMS = 5.3

// refSlice is how many Board.Run steps a long measured run takes between
// probes (about 0.1 s of guest-loop).
const refSlice = 200_000

// refOps is the number of bytecode operations one probe interprets.
const refOps = 1_750_000

var (
	refMem  = make([]uint32, 1<<20)
	refMap  = newRefMap()
	refSink uint32
)

func newRefMap() map[uint32]uint32 {
	m := make(map[uint32]uint32, 4096)
	for i := uint32(0); i < 4096; i++ {
		m[i*2654435761] = i
	}
	return m
}

// refWork is the probe's fixed work.
func refWork() {
	mem := refMem
	a, b, pc := uint32(1), uint32(7), uint32(0)
	for i := 0; i < refOps; i++ {
		switch pc & 7 {
		case 0:
			a += b
		case 1:
			b ^= a
		case 2:
			a = mem[(a>>3)&(1<<20-1)] + b
		case 3:
			b = b<<1 | a>>31
		case 4:
			mem[(b>>5)&(1<<20-1)] = a
		case 5:
			if a&1 == 0 {
				pc++
			}
		case 6:
			a += refMap[(a&4095)*2654435761]
		default:
			b += 3
		}
		pc++
	}
	refSink = a ^ b
}

// probe times the reference work once. Its time stays out of the
// iteration's wall clock.
func (it *iter) probe() {
	end := it.sp.begin("reference probe")
	t0 := time.Now()
	refWork()
	ns := float64(time.Since(t0).Nanoseconds())
	end()
	it.refMS = append(it.refMS, ns/1e6)
	it.probeNS += ns
}

// refScale is the factor that brings host times measured over its
// iterations to the reference speed: refNominalMS over their median probe
// time.
func refScale(its []*iter) float64 {
	var xs []float64
	for _, it := range its {
		xs = append(xs, it.refMS...)
	}
	m := median(xs)
	if m == 0 {
		return 1
	}
	return refNominalMS / m
}
