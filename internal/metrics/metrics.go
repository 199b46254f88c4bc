// Package metrics holds the process-wide metrics registry (registry.go,
// exported in Prometheus text format by prom.go) and, here, the log-scale
// histogram its latency and cardinality families are built on.
package metrics

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
)

// Histogram counts non-negative int64 samples in power-of-two buckets:
// bucket i holds values in [2^(i-1), 2^i), bucket 0 holds zero. Safe for
// concurrent use.
type Histogram struct {
	mu      sync.Mutex
	buckets [65]int64
	count   int64
	sum     int64
	max     int64
}

// Add records one sample; negative samples count into bucket 0.
func (h *Histogram) Add(v int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.buckets[i]++
	h.count++
	if v > 0 {
		h.sum += v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the sample mean (0 with no samples).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper bound for the q-quantile (bucket resolution).
func (h *Histogram) Quantile(q float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	target := int64(q * float64(h.count))
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if cum > target {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return h.max
}

// String renders a compact ASCII bar chart of the non-empty buckets.
func (h *Histogram) String() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var b strings.Builder
	var maxC int64
	for _, c := range h.buckets {
		if c > maxC {
			maxC = c
		}
	}
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		lo := int64(0)
		if i > 0 {
			lo = 1 << uint(i-1)
		}
		bar := int(40 * c / maxC)
		fmt.Fprintf(&b, "%12d+ %-40s %d\n", lo, strings.Repeat("#", bar), c)
	}
	return b.String()
}
