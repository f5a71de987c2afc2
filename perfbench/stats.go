package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs is not modified. Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms and us convert a duration to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// durations maps f over samples, keeping ok samples only.
func durations(ss []sample, f func(*sample) time.Duration) []float64 {
	out := make([]float64, 0, len(ss))
	for i := range ss {
		if ss[i].ok {
			out = append(out, ms(f(&ss[i])))
		}
	}
	return out
}

// latencies returns every offered op's latency in ms. A failed or shed
// op has no latency of its own: it counts as missing every limit, so
// it is entered as the whole window.
func latencies(st *loadStats, f func(*sample) time.Duration) []float64 {
	miss := ms(st.elapsed)
	out := make([]float64, 0, st.offered)
	for i := range st.samples {
		if st.samples[i].ok {
			out = append(out, ms(f(&st.samples[i])))
		} else {
			out = append(out, miss)
		}
	}
	for i := int64(0); i < st.shed; i++ {
		out = append(out, miss)
	}
	return out
}
