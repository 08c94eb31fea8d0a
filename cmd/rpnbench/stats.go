package main

import (
	"math"
	"sort"
	"time"
)

// samples collects durations or values for one quantity.
type samples []float64

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted
// values, or 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := int(math.Ceil(q * float64(n)))
	r = max(1, min(r, n))
	return sorted[r-1]
}

// median is percentile 0.5.
func median(s samples) float64 { return percentile(s.sorted(), 0.5) }

// tailLadder lists the percentiles a p99 metric falls back to, highest
// first. The median is always reported.
var tailLadder = []float64{0.99, 0.9, 0.5}

// tail applies the reporting rule for a tail percentile: report the
// highest percentile of tailLadder that has at least ten samples beyond
// it, so a p99 from 200 samples is never passed off as a p99. It returns
// the percentile actually used and its value.
func tail(sorted []float64) (q, v float64) {
	n := len(sorted)
	last := len(tailLadder) - 1
	for i, q := range tailLadder {
		if rank := int(math.Ceil(q * float64(n))); n-rank >= 10 || i == last {
			return q, percentile(sorted, q)
		}
	}
	return tailLadder[last], percentile(sorted, tailLadder[last])
}

// quartiles returns the first, second and third quartiles with the
// "exclusive" method (Python's statistics.quantiles default), so repeat-mode
// spreads match the ones computed from separate runs. It needs at least two
// values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// sliceLen is the length of the slices a measurement window is cut into.
const sliceLen = 500 * time.Millisecond

// sliced holds one quantity's samples by slice of the measurement window,
// so that each slice can be brought to the reference speed on its own
// (see ref.go).
type sliced []samples

func newSliced(window time.Duration) sliced {
	return make(sliced, max(1, int((window+sliceLen-1)/sliceLen)))
}

// add files v under the slice holding offset at from the window's start;
// offsets outside the window are dropped.
func (s sliced) add(at time.Duration, v float64) {
	if i := int(at / sliceLen); at >= 0 && i < len(s) {
		s[i] = append(s[i], v)
	}
}

// all returns every sample of the window.
func (s sliced) all() samples {
	var out samples
	for _, x := range s {
		out = append(out, x...)
	}
	return out
}

// medians returns each slice's median (0 for a slice without samples).
func (s sliced) medians() []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = median(x)
	}
	return out
}

// rates returns every slice's sample count per second over a window of
// the given length (the last slice may be shorter).
func (s sliced) rates(window time.Duration) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		d := min(sliceLen, window-time.Duration(i)*sliceLen)
		out[i] = float64(len(x)) / d.Seconds()
	}
	return out
}

func mean(s samples) float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}
