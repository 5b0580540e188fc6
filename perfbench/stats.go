package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a percentile
// before the benchmark reports it: a p99 over 500 samples rests on five
// values and is noise, so it is not printed.
const minTail = 10

// Dist summarizes a sample of durations (in milliseconds).
type Dist struct {
	N    int
	P50  float64
	P90  float64
	P99  float64
	Max  float64
	Mean float64
	// Tail names the highest percentile with at least minTail samples
	// beyond it ("p99", "p90", "p50" or "" when n < 2*minTail) and
	// TailValue is its value.
	Tail      string
	TailValue float64
}

// quantile returns the nearest-rank q-quantile of sorted values: the
// smallest value with at least q*n values at or below it.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// supports reports whether a sample of n leaves at least minTail values
// strictly beyond the nearest rank of quantile q.
func supports(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= minTail
}

// tailPercentile returns the highest of p99.9, p99, p90 and p50 that a
// sample of n supports; ok is false when not even the median qualifies.
func tailPercentile(n int) (name string, q float64, ok bool) {
	for _, c := range []struct {
		name string
		q    float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}, {"p50", 0.5}} {
		if supports(n, c.q) {
			return c.name, c.q, true
		}
	}
	return "", 0, false
}

// distOf computes the distribution of vals (which it sorts in
// place). P90 and P99 are NaN when the sample cannot support them.
func distOf(vals []float64) Dist {
	sort.Float64s(vals)
	d := Dist{N: len(vals), P50: math.NaN(), P90: math.NaN(), P99: math.NaN(), Max: math.NaN(), Mean: math.NaN()}
	if len(vals) == 0 {
		return d
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	d.Mean = sum / float64(len(vals))
	d.P50 = quantile(vals, 0.5)
	d.Max = vals[len(vals)-1]
	if name, q, ok := tailPercentile(len(vals)); ok {
		d.Tail, d.TailValue = name, quantile(vals, q)
	}
	if supports(len(vals), 0.9) {
		d.P90 = quantile(vals, 0.9)
	}
	if supports(len(vals), 0.99) {
		d.P99 = quantile(vals, 0.99)
	}
	return d
}

// String renders the distribution with its sample count.
func (d Dist) String() string {
	if d.N == 0 {
		return "n=0"
	}
	s := fmt.Sprintf("n=%d p50=%.3f", d.N, d.P50)
	if !math.IsNaN(d.P90) {
		s += fmt.Sprintf(" p90=%.3f", d.P90)
	}
	if !math.IsNaN(d.P99) {
		s += fmt.Sprintf(" p99=%.3f", d.P99)
	}
	return s + fmt.Sprintf(" max=%.3f mean=%.3f", d.Max, d.Mean)
}

// windowRates cuts [0, spanMS) into whole windows of wMS and returns
// the rate of completions in each, in units per second: a completion
// at endMS[i] (from the start of the phase) carries units[i] units,
// such as the rows of a batch or the records of a job. Completions
// after the last whole window are left out.
func windowRates(endMS, units []float64, spanMS, wMS float64) []float64 {
	n := int(spanMS / wMS)
	if n <= 0 {
		return nil
	}
	rates := make([]float64, n)
	for i, e := range endMS {
		if k := int(e / wMS); e >= 0 && k < n {
			rates[k] += units[i] * 1000 / wMS
		}
	}
	return rates
}

// Op is one scheduled operation of an open loop, timed from the loop's
// start: Due is when it was scheduled, Start when its sender began it,
// End when its outcome became visible. Sent is false for an operation
// its sender never started (the phase deadline passed first).
type Op struct {
	I               int // the operation's index in its phase
	Due, Start, End time.Duration
	Sent            bool
	Failed          bool
}

// Latency is an operation's latency as the user sees it: from when it
// was due, not when it was sent, so a stall that delays later sends is
// charged to every operation it delayed.
func (o Op) Latency() time.Duration { return o.End - o.Due }

// Accounting is the due-time accounting of one sender's operations.
type Accounting struct {
	// LatencyMS holds the latency of every sent, successful operation,
	// DueMS its due time and EndMS its end.
	LatencyMS []float64
	DueMS     []float64
	EndMS     []float64
	// LateMS holds how late the generator itself started each
	// operation: start minus the later of its due time and the end of
	// the sender's previous operation. Waiting behind a slow previous
	// answer is the system's delay, already in LatencyMS; what remains
	// is generator wake-up lag.
	LateMS []float64
	Sent   int
	Unsent int
	Failed int
}

// account folds one sender's operations, in send order, into an
// Accounting (appending to acc).
func account(acc *Accounting, ops []Op) {
	var prevEnd time.Duration
	for _, o := range ops {
		if !o.Sent {
			acc.Unsent++
			continue
		}
		acc.Sent++
		ready := o.Due
		if prevEnd > ready {
			ready = prevEnd
		}
		acc.LateMS = append(acc.LateMS, ms(o.Start-ready))
		prevEnd = o.End
		if o.Failed {
			acc.Failed++
			continue
		}
		acc.LatencyMS = append(acc.LatencyMS, ms(o.Latency()))
		acc.DueMS = append(acc.DueMS, ms(o.Due))
		acc.EndMS = append(acc.EndMS, ms(o.End))
	}
}

// add appends b's operations to a with their due and end times
// shifted by offsetMS, so phases run one after another read as one
// timeline.
func (a *Accounting) add(b Accounting, offsetMS float64) {
	for i := range b.LatencyMS {
		a.LatencyMS = append(a.LatencyMS, b.LatencyMS[i])
		a.DueMS = append(a.DueMS, b.DueMS[i]+offsetMS)
		a.EndMS = append(a.EndMS, b.EndMS[i]+offsetMS)
	}
	a.LateMS = append(a.LateMS, b.LateMS...)
	a.Sent += b.Sent
	a.Unsent += b.Unsent
	a.Failed += b.Failed
}

// minWindowSamples is the smallest window that supports a p90.
const minWindowSamples = 100

// window is what one stretch of measured time yielded (latencies,
// a completion rate, a control operation's time), with the share of
// the machine's CPU time the hypervisor stole while it ran.
type window struct {
	Steal float64
	Vals  []float64
}

// calmStealPct is the most the hypervisor may steal, in percent of the
// CPU time, during a calm window.
const calmStealPct = 3

// calmCount returns how many of ws are calm.
func calmCount(ws []window) int {
	n := 0
	for _, w := range ws {
		if w.Steal <= calmStealPct {
			n++
		}
	}
	return n
}

// pickCalm returns n of ws: the first n calm ones in the order they
// were measured and, when fewer than n are calm, the least stolen of
// the others. Every run reports the same number of windows, measured
// on a machine as quiet as the run found it.
func pickCalm(ws []window, n int) []window {
	idx := make([]int, len(ws))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ca, cb := ws[idx[a]].Steal <= calmStealPct, ws[idx[b]].Steal <= calmStealPct
		if ca || cb {
			return ca && !cb
		}
		return ws[idx[a]].Steal < ws[idx[b]].Steal
	})
	idx = idx[:min(n, len(idx))]
	sort.Ints(idx)
	out := make([]window, len(idx))
	for k, i := range idx {
		out[k] = ws[i]
	}
	return out
}

// pooled returns every value of ws in one slice.
func pooled(ws []window) []float64 {
	var out []float64
	for _, w := range ws {
		out = append(out, w.Vals...)
	}
	return out
}

// maxSteal returns the highest steal among ws.
func maxSteal(ws []window) float64 {
	m := 0.0
	for _, w := range ws {
		m = math.Max(m, w.Steal)
	}
	return m
}

// splitByDue cuts a phase's latencies into n equal windows of its
// spanMS by due time.
func splitByDue(acc Accounting, spanMS float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i, lat := range acc.LatencyMS {
		k := min(max(int(acc.DueMS[i]/spanMS*float64(n)), 0), n-1)
		out[k] = append(out[k], lat)
	}
	return out
}

// windowed returns the p50 and p90 of latency windows: the median of
// each over the windows when every window supports a p90, so a stall
// of a second moves one window and not the reported figure, and
// otherwise the p50 and p90 of all the windows' samples pooled.
func windowed(ws []window) (p50, p90 float64, perWindow bool) {
	var p50s, p90s []float64
	for _, w := range ws {
		if len(w.Vals) < minWindowSamples {
			d := distOf(pooled(ws))
			return d.P50, d.P90, false
		}
		d := distOf(append([]float64(nil), w.Vals...))
		p50s = append(p50s, d.P50)
		p90s = append(p90s, d.P90)
	}
	if len(ws) == 0 {
		return math.NaN(), math.NaN(), false
	}
	return median(p50s), median(p90s), true
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of vals (NaN when empty), without
// reordering the caller's slice.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
