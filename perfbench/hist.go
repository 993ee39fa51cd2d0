package main

import (
	"math"
	"math/bits"
)

// hist is a log-linear histogram of nanosecond durations. Values below
// histSub land in row 0 at exact resolution; above that, each power of two
// [2^e, 2^(e+1)) is split into histSub equal buckets, so a bucket is at
// most 1/histSub of its value wide. Rows are allocated on first use: a
// session touching a handful of octaves stays under a kilobyte, and once
// its rows exist recording never allocates. Each session owns its
// histograms; they are merged after the window, so counts stay exact.
type hist struct {
	rows [histRows]*[histSub]uint32
	n    uint64 // samples recorded
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histRows    = 44
	// histMax is the largest recordable value (about 39 hours); a failed
	// call is recorded here, above every real latency.
	histMax = int64(1)<<(histRows+histSubBits-2) - 1
)

func histIndex(v int64) (row, sub int) {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return 0, int(v)
	}
	if v > histMax {
		v = histMax
	}
	shift := bits.Len64(uint64(v)) - 1 - histSubBits
	return shift + 1, int(v>>shift) - histSub
}

// bucketBounds returns the lower bound and width of a bucket.
func bucketBounds(row, sub int) (lo, width float64) {
	if row == 0 {
		return float64(sub), 1
	}
	shift := row - 1
	return float64(int64(histSub+sub) << shift), float64(int64(1) << shift)
}

func (h *hist) add(ns int64) {
	row, sub := histIndex(ns)
	r := h.rows[row]
	if r == nil {
		r = new([histSub]uint32)
		h.rows[row] = r
	}
	r[sub]++
	h.n++
}

// reset empties h, keeping its rows.
func (h *hist) reset() {
	for _, r := range h.rows {
		if r != nil {
			*r = [histSub]uint32{}
		}
	}
	h.n = 0
}

func (h *hist) merge(o *hist) {
	for i, r := range o.rows {
		if r == nil {
			continue
		}
		if h.rows[i] == nil {
			h.rows[i] = new([histSub]uint32)
		}
		for j, c := range r {
			h.rows[i][j] += c
		}
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile in nanoseconds,
// interpolated linearly by rank inside its bucket. It is NaN for an
// empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, r := range h.rows {
		if r == nil {
			continue
		}
		for j, c := range r {
			if c == 0 {
				continue
			}
			if seen+uint64(c) >= rank {
				lo, w := bucketBounds(i, j)
				return lo + w*(float64(rank-seen)-0.5)/float64(c)
			}
			seen += uint64(c)
		}
	}
	return float64(histMax)
}

// beyond reports how many samples lie above the q-quantile's rank: the
// sample count a reader needs to trust that percentile.
func (h *hist) beyond(q float64) uint64 {
	return h.n - uint64(math.Ceil(q*float64(h.n)))
}
