package main

import (
	"math/rand"
	"time"
)

// Host speed. On a host shared with other workloads the CPUs' effective
// speed drifts by a quarter or more for minutes at a time, and every
// timing of a run moves with it. The benchmark therefore interleaves, with
// the work it measures, a reference forward pass: its own frozen copy of
// the obstacle network's shape (3×3 conv to 8 channels, ReLU, 2×2
// max-pool, dense 512→24, ReLU, dense 24→2) in plain loops, so no change
// to the program moves it, while it slows down when the program's code
// does. The serve workloads run one pass per governor tick in the server
// process, the offline workload refPerBlock passes after each block. Each
// 0.5 s slice's slowdown is its median pass time over refNominal; the
// slice's timings are divided, and its capacities multiplied, by the
// slowdown raised to speedExponent, so the gated figures are what the run
// would have measured at the reference speed. The measured per-slice
// values are printed beside them.
//
// The program's timings grow more slowly than the reference's: fitted
// over 20 runs of the three workloads on a shared 2-vCPU host, they follow
// its slowdown to the power 0.5–0.8. With speedExponent 0.75 the
// run-to-run spread (IQR ÷ median) of every timing and capacity fell from
// 0.07–0.37 to 0.02–0.10 there.

// refNominal is the reference pass's time at the reference speed, in µs:
// its typical time on an idle 2-vCPU Xeon host.
const refNominal = 27.0

// speedExponent is the power of the slowdown the timings are scaled by.
const speedExponent = 0.75

// refNet is the reference network with fixed random weights.
type refNet struct {
	conv   [8 * 9]float32
	fc1    [24 * 512]float32
	fc2    [2 * 24]float32
	input  [256]float32
	cols   [9 * 256]float32
	act    [256]float32
	pooled [512]float32
	hidden [24]float32
	out    [2]float32
}

func newRefNet() *refNet {
	rng := rand.New(rand.NewSource(1))
	n := &refNet{}
	for _, w := range [][]float32{n.conv[:], n.fc1[:], n.fc2[:], n.input[:]} {
		for i := range w {
			w[i] = float32(rng.NormFloat64()) * 0.2
		}
	}
	return n
}

// forward runs one pass over the fixed input and returns its wall time.
func (n *refNet) forward() time.Duration {
	t0 := time.Now()
	for k := 0; k < 9; k++ {
		dy, dx := k/3-1, k%3-1
		for y := 0; y < 16; y++ {
			for x := 0; x < 16; x++ {
				v := float32(0)
				if sy, sx := y+dy, x+dx; sy >= 0 && sy < 16 && sx >= 0 && sx < 16 {
					v = n.input[sy*16+sx]
				}
				n.cols[k*256+y*16+x] = v
			}
		}
	}
	for oc := 0; oc < 8; oc++ {
		for i := range n.act {
			n.act[i] = 0
		}
		for k := 0; k < 9; k++ {
			w := n.conv[oc*9+k]
			for i, c := range n.cols[k*256 : (k+1)*256] {
				n.act[i] += w * c
			}
		}
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				b := 2*y*16 + 2*x
				n.pooled[oc*64+y*8+x] = max(n.act[b], n.act[b+1], n.act[b+16], n.act[b+17], 0)
			}
		}
	}
	for j := range n.hidden {
		var s float32
		for i, w := range n.fc1[j*512 : (j+1)*512] {
			s += w * n.pooled[i]
		}
		n.hidden[j] = max(s, 0)
	}
	for j := range n.out {
		var s float32
		for i, w := range n.fc2[j*24 : (j+1)*24] {
			s += w * n.hidden[i]
		}
		n.out[j] = s
	}
	return time.Since(t0)
}

// speedSampler collects reference pass times by slice of the window. It
// is used from one goroutine at a time.
type speedSampler struct {
	net  *refNet
	from time.Time
	us   sliced
}

func newSpeedSampler(from time.Time, window time.Duration) *speedSampler {
	return &speedSampler{net: newRefNet(), from: from, us: newSliced(window)}
}

// sample runs n reference passes and files their times.
func (s *speedSampler) sample(n int) {
	for i := 0; i < n; i++ {
		at := time.Now()
		s.us.add(at.Sub(s.from), us(s.net.forward()))
	}
}

// slowdowns returns each slice's median reference time over refNominal
// (0 for a slice without samples).
func (s *speedSampler) slowdowns() []float64 {
	out := s.us.medians()
	for i := range out {
		out[i] /= refNominal
	}
	return out
}
