package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseStat counts one phase's operations by outcome.
type phaseStat struct {
	Name      string
	Attempted int
	OK        int
	Failed    map[string]int // by reason
	Unsent    int            // due but never started before the phase deadline
	Extra     string
}

func (p phaseStat) failed() int {
	n := 0
	for _, v := range p.Failed {
		n += v
	}
	return n
}

// countUnsent makes the operations of a phase that were still unsent
// at its deadline attempted and failed: outside a saturating capacity
// segment, the system fell behind the schedule.
func countUnsent(rep *Report, st *phaseStat) {
	if st.Unsent == 0 {
		return
	}
	st.Attempted += st.Unsent
	st.Failed["unsent_at_deadline"] += st.Unsent
	rep.Check(false, "%s: %d operations still unsent at the phase deadline", st.Name, st.Unsent)
}

// describe says how many windows of those measured a metric used, how
// many were calm, the highest steal among those used, and the steal of
// each window measured.
func describe(measured, used []window, what string) string {
	steals := make([]string, len(measured))
	for i, w := range measured {
		steals[i] = strconv.FormatFloat(w.Steal, 'f', 1, 64)
	}
	return fmt.Sprintf("%d of %d %s (%d calm, most stolen used %.1f%%; stolen %% [%s])",
		len(used), len(measured), what, calmCount(measured), maxSteal(used), strings.Join(steals, " "))
}

// Report accumulates a run's phases, correctness checks and metrics and
// prints them: a human-readable block, then the one-line JSON result.
type Report struct {
	Workload string
	Trace    bool
	phases   []phaseStat
	checks   []string // failed correctness checks
	passed   int
	metrics  map[string]metricValue
	notes    []string
}

func newReport(workload string, trace bool) *Report {
	return &Report{Workload: workload, Trace: trace, metrics: map[string]metricValue{}}
}

// Check records a correctness check; ok=false turns the run red.
func (r *Report) Check(ok bool, format string, args ...any) {
	if ok {
		r.passed++
		return
	}
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// Phase records a phase's operation counts.
func (r *Report) Phase(p phaseStat) { r.phases = append(r.phases, p) }

// Note adds a line to the human-readable report.
func (r *Report) Note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// Set records a metric in its declared unit. A NaN or infinite value is
// a failed check: the benchmark never reports a number it could not
// measure.
func (r *Report) Set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Check(false, "metric %s could not be measured", name)
		v = 0
	}
	r.metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
}

// Correct reports whether every check passed.
func (r *Report) Correct() bool { return len(r.checks) == 0 }

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// Write prints the report to w: phases, notes, metrics with units (and,
// for per-layer metrics, the end-to-end metric they should move), failed
// checks, then the JSON result as the final line.
func (r *Report) Write(w io.Writer, want []string) {
	fmt.Fprintf(w, "workload %s (trace=%v)\n", r.Workload, r.Trace)
	res := result{Correct: r.Correct(), Metrics: map[string]metricValue{}}
	for _, p := range r.phases {
		res.Attempted += p.Attempted
		res.Failed += p.failed()
		var reasons []string
		for k, v := range p.Failed {
			reasons = append(reasons, k+"="+strconv.Itoa(v))
		}
		sort.Strings(reasons)
		fmt.Fprintf(w, "  phase %-22s attempted=%d ok=%d failed=%d [%s] unsent=%d %s\n",
			p.Name, p.Attempted, p.OK, p.failed(), strings.Join(reasons, " "), p.Unsent, p.Extra)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, name := range want {
		m, ok := r.metrics[name]
		if !ok {
			r.Check(false, "metric %s was not measured", name)
			continue
		}
		res.Metrics[name] = m
		line := fmt.Sprintf("  %-32s %14.4f %s", name, m.Value, m.Unit)
		if l, ok := layerByName[name]; ok {
			line += fmt.Sprintf("   -> %s @ %s", l.Moves, l.On)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  correctness: %d checks passed, %d failed\n", r.passed, len(r.checks))
	for _, c := range r.checks {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", c)
	}
	res.Correct = r.Correct()
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(b))
}

// since returns seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
