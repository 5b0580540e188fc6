package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

// The percentile rule: a percentile is reported only when at least ten
// samples lie beyond it.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n        int
		p90, p99 bool
		tail     string
	}{
		{n: 19, tail: ""},
		{n: 20, tail: "p50"},
		{n: 99, tail: "p50"},
		{n: 100, p90: true, tail: "p90"},
		{n: 999, p90: true, tail: "p90"},
		{n: 1000, p90: true, p99: true, tail: "p99"},
		{n: 10000, p90: true, p99: true, tail: "p99.9"},
	}
	for _, c := range cases {
		d := distOf(seq(c.n))
		if got := !math.IsNaN(d.P90); got != c.p90 {
			t.Errorf("n=%d: p90 reported=%v, want %v", c.n, got, c.p90)
		}
		if got := !math.IsNaN(d.P99); got != c.p99 {
			t.Errorf("n=%d: p99 reported=%v, want %v", c.n, got, c.p99)
		}
		if d.Tail != c.tail {
			t.Errorf("n=%d: tail %q, want %q", c.n, d.Tail, c.tail)
		}
		if d.N != c.n {
			t.Errorf("n=%d: count %d", c.n, d.N)
		}
	}
}

func TestDistValuesAreNearestRank(t *testing.T) {
	d := distOf(seq(1000))
	if d.P50 != 500 || d.P90 != 900 || d.P99 != 990 || d.Max != 1000 || d.Mean != 500.5 {
		t.Fatalf("dist of 1..1000 = %+v", d)
	}
	// Ten samples lie beyond the p99 of 1000: 991..1000.
	if d.TailValue != 990 {
		t.Fatalf("tail value %v", d.TailValue)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
}

// Capacity windows count each completion, weighted by its units, in
// the whole window it falls in; completions past the last whole window
// are left out.
func TestWindowRates(t *testing.T) {
	ends := []float64{0, 10, 499.9, 500, 999, 1200, 1500, 1700}
	units := []float64{1, 1, 1, 64, 1, 2, 5, 5}
	got := windowRates(ends, units, 1600, 500)
	want := []float64{6, 130, 4} // per second: 3, 65 and 2 units per half second
	if len(got) != len(want) {
		t.Fatalf("windows %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("windows %v, want %v", got, want)
		}
	}
	if w := windowRates(ends, units, 400, 500); len(w) != 0 {
		t.Fatalf("a span shorter than a window has no whole window: %v", w)
	}
}

// Segments folded together keep their order on one timeline.
func TestAccountingAddShiftsTimes(t *testing.T) {
	a := Accounting{LatencyMS: []float64{1}, DueMS: []float64{10}, EndMS: []float64{11}, LateMS: []float64{0.1}, Sent: 1}
	b := Accounting{LatencyMS: []float64{2}, DueMS: []float64{5}, EndMS: []float64{7}, LateMS: []float64{0.2}, Sent: 2, Unsent: 1, Failed: 1}
	a.add(b, 1000)
	if a.DueMS[1] != 1005 || a.EndMS[1] != 1007 || a.LatencyMS[1] != 2 || len(a.LateMS) != 2 {
		t.Fatalf("added %+v", a)
	}
	if a.Sent != 3 || a.Unsent != 1 || a.Failed != 1 {
		t.Fatalf("counts %+v", a)
	}
}

// Latency is charged from the due time: a stall on one operation delays
// the sender's later operations, and each of them carries the wait.
// Generator lateness counts only the generator's own delay.
func TestDueTimeAccounting(t *testing.T) {
	msd := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	ops := []Op{
		// Due every 10 ms. Op 0 stalls for 35 ms.
		{Due: 0, Start: 0, End: msd(35), Sent: true},
		{Due: msd(10), Start: msd(35), End: msd(36), Sent: true},
		{Due: msd(20), Start: msd(36), End: msd(37), Sent: true},
		{Due: msd(30), Start: msd(37), End: msd(38), Sent: true},
		// Idle sender, but the generator woke 2 ms late.
		{Due: msd(40), Start: msd(42), End: msd(43), Sent: true},
		{Due: msd(50), Start: msd(50), End: msd(51), Sent: true, Failed: true},
		{Due: msd(60)},
	}
	var acc Accounting
	account(&acc, ops)
	wantLat := []float64{35, 26, 17, 8, 3}
	if len(acc.LatencyMS) != len(wantLat) {
		t.Fatalf("latencies %v", acc.LatencyMS)
	}
	for i, w := range wantLat {
		if math.Abs(acc.LatencyMS[i]-w) > 1e-9 {
			t.Fatalf("latency[%d] = %v, want %v (all %v)", i, acc.LatencyMS[i], w, acc.LatencyMS)
		}
	}
	wantLate := []float64{0, 0, 0, 0, 2, 0}
	for i, w := range wantLate {
		if math.Abs(acc.LateMS[i]-w) > 1e-9 {
			t.Fatalf("lateness[%d] = %v, want %v (all %v)", i, acc.LateMS[i], w, acc.LateMS)
		}
	}
	if acc.Sent != 6 || acc.Unsent != 1 || acc.Failed != 1 {
		t.Fatalf("sent %d unsent %d failed %d", acc.Sent, acc.Unsent, acc.Failed)
	}
}

// The open loop sends on schedule and never early.
func TestOpenLoopKeepsSchedule(t *testing.T) {
	due := func(i int) time.Duration { return time.Duration(i) * 2 * time.Millisecond }
	res := runOpenLoop(roundRobin(40, 2), due, beforeDeadline(time.Second), true, func(int, int) bool { return false })
	n := 0
	for _, ops := range res.PerSender {
		for _, o := range ops {
			n++
			if !o.Sent || o.Start < o.Due || o.End < o.Start {
				t.Fatalf("op %d: %+v", o.I, o)
			}
		}
	}
	if n != 40 {
		t.Fatalf("%d ops run", n)
	}
	cut := runOpenLoop(roundRobin(40, 2), due, beforeDeadline(20*time.Millisecond), false, func(int, int) bool { return false })
	if acc := cut.accounting(); acc.Unsent == 0 || acc.Sent+acc.Unsent != 40 {
		t.Fatalf("deadline left %d unsent of %d", acc.Unsent, acc.Sent+acc.Unsent)
	}
}

// A one-second stall moves one window's percentiles, not the median
// over windows; windows too small for a p90 are pooled.
func TestWindowedPercentilesResistOneStall(t *testing.T) {
	var acc Accounting
	for i := 0; i < 6000; i++ {
		lat := 1 + float64(i%10)/10 // 1.0 .. 1.9 ms
		if i >= 2000 && i < 3000 {
			lat += 50 // the third second stalls
		}
		acc.LatencyMS = append(acc.LatencyMS, lat)
		acc.DueMS = append(acc.DueMS, float64(i))
	}
	var ws []window
	for _, v := range splitByDue(acc, 6000, 6) {
		if len(v) != 1000 {
			t.Fatalf("window of %d samples", len(v))
		}
		ws = append(ws, window{Vals: v})
	}
	if p50, p90, per := windowed(ws); !per || p50 != 1.4 || p90 != 1.8 {
		t.Fatalf("windowed = p50 %v p90 %v per window %v", p50, p90, per)
	}
	whole := distOf(append([]float64(nil), acc.LatencyMS...))
	if whole.P90 < 50 {
		t.Fatalf("the whole-phase p90 %v should show the stall", whole.P90)
	}
	small := []window{{Vals: seq(75)}, {Vals: seq(150)[75:]}}
	if p50, p90, per := windowed(small); per || p50 != 75 || p90 != 135 {
		t.Fatalf("small windows: p50 %v p90 %v per window %v", p50, p90, per)
	}
}

// pickCalm takes calm windows first, in the order measured, and fills
// up with the least stolen of the rest.
func TestPickCalm(t *testing.T) {
	ws := []window{{Steal: 9, Vals: []float64{0}}, {Steal: 1, Vals: []float64{1}}, {Steal: 4, Vals: []float64{2}},
		{Steal: 0, Vals: []float64{3}}, {Steal: 2, Vals: []float64{4}}, {Steal: 30, Vals: []float64{5}}}
	got := func(n int) []float64 { return pooled(pickCalm(ws, n)) }
	if g := got(2); !reflect.DeepEqual(g, []float64{1, 3}) {
		t.Fatalf("2 of 3 calm: %v", g)
	}
	if g := got(3); !reflect.DeepEqual(g, []float64{1, 3, 4}) {
		t.Fatalf("3 of 3 calm: %v", g)
	}
	if g := got(5); !reflect.DeepEqual(g, []float64{0, 1, 2, 3, 4}) {
		t.Fatalf("3 calm and the 2 least stolen, in measured order: %v", g)
	}
	if g := got(9); len(g) != len(ws) || calmCount(ws) != 3 || maxSteal(ws) != 30 {
		t.Fatalf("more than measured: %v", g)
	}
}

// The steal of a stretch is read between the samples that enclose it.
func TestStealLogPct(t *testing.T) {
	t0 := time.Now().Add(-time.Hour)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	l := &stealLog{
		at:    []time.Time{at(0), at(1), at(2), at(3)},
		total: []uint64{0, 200, 400, 600},
		steal: []uint64{0, 0, 40, 40},
	}
	for _, c := range []struct {
		a, b int
		want float64
	}{{0, 1, 0}, {1, 2, 20}, {2, 3, 0}, {0, 3, 40.0 / 6}} {
		if got := l.pct(at(c.a), at(c.b)); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("pct(%d s, %d s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	// A stretch inside one sampling interval reads that interval.
	if got := l.pct(at(1).Add(time.Millisecond), at(2).Add(-time.Millisecond)); got != 20 {
		t.Errorf("inner stretch = %v", got)
	}
}
