package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail quantile read off fewer is one outlier's value, not a distribution's.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of samples as the smallest
// sample with at least a share p of the samples at or below it, and refuses
// when fewer than minBeyond samples lie beyond that one. It sorts a copy.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	idx := max(int(math.Ceil(p*float64(n)-1e-9))-1, 0)
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[idx], nil
}

// median returns the middle value (mean of the two middle values for an even
// count) of vs, 0 when empty. It sorts a copy.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// valuesOf is a per-round value of each round.
func valuesOf(rounds []*roundResult, f func(*roundResult) float64) []float64 {
	vs := make([]float64, len(rounds))
	for i, r := range rounds {
		vs[i] = f(r)
	}
	return vs
}

// medianOf is the median over rounds of a per-round value.
func medianOf(rounds []*roundResult, f func(*roundResult) float64) float64 {
	return median(valuesOf(rounds, f))
}

// goodput is a round's correct queries per second.
func goodput(r *roundResult) float64 { return float64(r.attempted-r.failed) / r.wall.Seconds() }

// spread is (Q3-Q1)/median, the quartiles computed as Python's
// statistics.quantiles(vs, n=4) computes them (the exclusive method), so that
// it is the number the driver's acceptance check looks at. 0 for fewer than
// two values.
func spread(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / med
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark so far, in MB
// (getrusage's ru_maxrss, which Linux counts in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// schedule is an open-loop arrival plan: request i is due at start + i/rate,
// whatever the system under test is doing.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// openLoopSample is one request of an open loop. Latency runs from the due
// time, so a stall charges the requests queued behind it; lateness is how far
// behind the plan the generator itself issued the request.
type openLoopSample struct {
	latency, lateness time.Duration
}

func (s schedule) sample(i int, sent, done time.Time) openLoopSample {
	due := s.due(i)
	late := sent.Sub(due)
	if late < 0 {
		late = 0
	}
	return openLoopSample{latency: done.Sub(due), lateness: late}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
