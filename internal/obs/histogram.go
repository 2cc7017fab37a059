package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync/atomic"
)

// Histogram bucket layout: fixed log-spaced boundaries, histBucketsPerDecade
// buckets per decade from histMin up to histMin*10^histDecades, plus one
// overflow (+Inf) bucket. The layout is chosen for host-side latencies in
// seconds: 1µs resolves a single fast simulation cell, 10^3 s bounds any
// sane builder, and the growth factor 10^(1/5) ≈ 1.585 bounds the relative
// error of a quantile read off the bucket boundaries.
const (
	histMin              = 1e-6
	histBucketsPerDecade = 5
	histDecades          = 9
	numHistBuckets       = histBucketsPerDecade*histDecades + 1
)

// histBounds holds the inclusive upper bound of each finite bucket:
// histBounds[i] = histMin * 10^(i/histBucketsPerDecade).
var histBounds = func() [numHistBuckets]float64 {
	var b [numHistBuckets]float64
	for i := range b {
		b[i] = histMin * math.Pow(10, float64(i)/histBucketsPerDecade)
	}
	return b
}()

// Histogram counts float64 observations in fixed log-spaced buckets. It is
// safe for concurrent use: bucket counts are atomic and the running sum is
// CAS-accumulated, so Observe never takes a lock. Values at or below the
// smallest boundary land in the first bucket; values above the largest land
// in the overflow bucket.
type Histogram struct {
	// counts[i] is the number of observations in bucket i (bucket
	// numHistBuckets is the +Inf overflow bucket). Per-bucket, not
	// cumulative; exposition cumulates on render.
	counts [numHistBuckets + 1]atomic.Int64
	// sumBits is the float64 bit pattern of the observation sum.
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[histBucket(v)].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// histBucket maps a value to its bucket index.
func histBucket(v float64) int {
	if v > histBounds[numHistBuckets-1] {
		return numHistBuckets
	}
	// NaN compares false against every boundary, so SearchFloat64s returns
	// numHistBuckets and NaN lands in the overflow bucket.
	return sort.SearchFloat64s(histBounds[:], v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(h.sumBits.Load())
}

// writeText writes the histogram in the Prometheus text exposition format
// (cumulative _bucket series plus _sum and _count), assuming the caller has
// already emitted the HELP/TYPE header.
func (h *Histogram) writeText(w io.Writer, name string) error {
	bw := bufio.NewWriter(w)
	var cum int64
	for i := 0; i < numHistBuckets; i++ {
		cum += h.counts[i].Load()
		fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", name, formatBound(histBounds[i]), cum)
	}
	cum += h.counts[numHistBuckets].Load()
	fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(bw, "%s_sum %s\n", name, strconv.FormatFloat(h.Sum(), 'g', -1, 64))
	fmt.Fprintf(bw, "%s_count %d\n", name, cum)
	return bw.Flush()
}

// formatBound renders a bucket boundary the way Prometheus clients do:
// shortest float64 representation.
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}
