package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: with fewer, one slow sample moves the figure between runs.
const minBeyond = 10

// boundaryMargin is how close, in percentile points, a reported
// percentile may come to the cumulative share where one request class
// ends and the next begins. Nearer than that, a small shift in the mix
// moves the percentile from one class's latencies to the other's.
const boundaryMargin = 5.0

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// interquartileMean is the mean of the middle half of xs: the samples
// left after dropping the lowest and the highest quarter. Like the
// median it ignores outliers, but where the samples fall into two modes
// it moves smoothly with the share of each instead of jumping from one
// mode to the other when that share crosses a half.
func interquartileMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// beyond is the number of samples strictly above the p-th percentile's
// rank among n samples.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// percentile is a latency percentile with the sample count behind it.
type percentile struct {
	Value  float64
	N      int
	Beyond int
}

// guardedPercentile returns the p-th percentile of xs, or an error when
// fewer than minBeyond samples lie beyond it.
func guardedPercentile(xs []float64, p float64) (percentile, error) {
	b := beyond(len(xs), p)
	if b < minBeyond {
		return percentile{}, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", p, len(xs), b, minBeyond)
	}
	return percentile{Value: quantile(xs, p/100), N: len(xs), Beyond: b}, nil
}

// classShare is one request class's measured share of a mix and the
// median latency that orders it among the classes.
type classShare struct {
	Name   string
	Share  float64 // percent of requests
	Median float64
}

// classBoundaries orders the classes by median latency and returns the
// cumulative shares (percent) at which one class hands over to the
// next; the final 100 is not a boundary.
func classBoundaries(classes []classShare) []float64 {
	s := append([]classShare(nil), classes...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].Median < s[j].Median })
	var out []float64
	cum := 0.0
	for i, c := range s {
		cum += c.Share
		if i < len(s)-1 {
			out = append(out, cum)
		}
	}
	return out
}

// checkBoundary fails when percentile p lies within boundaryMargin
// points of a class boundary.
func checkBoundary(p float64, boundaries []float64) error {
	for _, b := range boundaries {
		if math.Abs(p-b) < boundaryMargin {
			return fmt.Errorf("p%g lies %.1f points from the class boundary at %.1f%%", p, math.Abs(p-b), b)
		}
	}
	return nil
}
