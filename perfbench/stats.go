package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// dist is a set of timing samples.
type dist []float64

// quantile returns the q-quantile by linear interpolation between order
// statistics (0 for an empty set).
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append(dist(nil), d...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func (d dist) median() float64 { return d.quantile(0.5) }

// tailQ is the tail percentile a timing reports: p90, or, with fewer than
// 100 samples, the highest percentile that keeps at least ten samples
// beyond it (never below the median).
func (d dist) tailQ() float64 {
	if len(d) == 0 {
		return 0.9
	}
	return math.Max(0.5, math.Min(0.9, 1-10/float64(len(d))))
}

func (d dist) tail() float64 { return d.quantile(d.tailQ()) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
