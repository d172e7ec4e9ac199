package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the inclusive method); 0 for an empty sample. xs is not
// modified.
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

// geomean returns the geometric mean of xs, which must all be positive;
// 0 for an empty sample or when any value is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// mean returns the arithmetic mean of xs; 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// minBeyond is how many samples must lie above a tail percentile for it
// to be reported: a p99 over 200 samples rests on two values and says
// nothing a rerun would repeat.
const minBeyond = 10

// summary is a timing distribution reported by the percentile rule: the
// median, plus the highest percentile with at least minBeyond samples
// beyond it, with the sample counts both rest on.
type summary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	TailP  float64 `json:"tail_p"` // 0 when even the median lacks minBeyond samples beyond it
	Tail   float64 `json:"tail"`   // value at TailP
	Beyond int     `json:"beyond"` // samples strictly above the TailP rank
}

// beyond returns how many of n samples lie above the p-th percentile's
// rank (the samples a rerun must reproduce for that percentile to hold).
func beyond(n int, p float64) int {
	// The epsilon keeps float error in p/100·n (99.9% of 10000 computes
	// as 9990.000000000002) from costing a whole rank.
	return n - int(math.Ceil(p/100*float64(n)-1e-9))
}

// summarize applies the percentile rule to xs.
func summarize(xs []float64) summary {
	s := summary{N: len(xs), P50: median(xs)}
	for _, p := range tailPercentiles {
		if b := beyond(len(xs), p); b >= minBeyond {
			s.TailP, s.Tail, s.Beyond = p, quantile(xs, p/100), b
			break
		}
	}
	return s
}
