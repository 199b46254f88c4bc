package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 100, 1000} {
		h.Add(v)
	}
	if h.Count() != 7 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Mean() < 150 || h.Mean() > 170 {
		t.Errorf("mean = %v", h.Mean())
	}
	if q := h.Quantile(0.99); q < 1000 {
		t.Errorf("p99 = %d", q)
	}
	if q := h.Quantile(0); q > 0 {
		t.Errorf("p0 = %d", q)
	}
	if !strings.Contains(h.String(), "#") {
		t.Error("String should render bars")
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram stats")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Add(i)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d", h.Count())
	}
}

// TestHistogramQuantileEdges pins the bucket-resolution quantile contract
// at its boundaries.
func TestHistogramQuantileEdges(t *testing.T) {
	var empty Histogram
	if empty.Quantile(0) != 0 || empty.Quantile(1) != 0 {
		t.Error("empty histogram quantiles should be 0")
	}

	// Single bucket: every sample lands in [64, 128); all quantiles resolve
	// to that bucket's upper bound except q=1, which reports the exact max.
	var single Histogram
	for i := 0; i < 10; i++ {
		single.Add(100)
	}
	if q := single.Quantile(0); q != 127 {
		t.Errorf("single-bucket p0 = %d, want 127", q)
	}
	if q := single.Quantile(0.5); q != 127 {
		t.Errorf("single-bucket p50 = %d, want 127", q)
	}
	if q := single.Quantile(1); q != 100 {
		t.Errorf("single-bucket p100 = %d, want max 100", q)
	}

	// Zero-only samples live in bucket 0 and quantiles stay 0.
	var zeros Histogram
	zeros.Add(0)
	zeros.Add(-5)
	if zeros.Quantile(0) != 0 || zeros.Quantile(0.99) != 0 {
		t.Error("zero-bucket quantiles should be 0")
	}

	// q=1 always reports the exact maximum, across buckets.
	var h Histogram
	for _, v := range []int64{1, 2, 900} {
		h.Add(v)
	}
	if q := h.Quantile(1); q != 900 {
		t.Errorf("p100 = %d, want 900", q)
	}
}

// TestConcurrentPrimitives hammers every shared primitive from multiple
// goroutines; run under -race this is the package's data-race check.
func TestConcurrentPrimitives(t *testing.T) {
	var h Histogram
	var reg Registry

	const goroutines, iters = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				h.Add(int64(i))
				_ = h.Quantile(0.5)
				_ = h.Mean()
				reg.Episodes.Add(1)
				if i%100 == 0 {
					reg.AddFault("stall", 1)
					reg.Snapshot()
				}
			}
		}()
	}
	wg.Wait()

	if h.Count() != goroutines*iters {
		t.Errorf("histogram count = %d", h.Count())
	}
	if got := reg.Episodes.Load(); got != goroutines*iters {
		t.Errorf("registry episodes = %d", got)
	}
}
