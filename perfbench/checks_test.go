package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lifecycle"
	"repro/internal/resilience"
)

// fakeRows is a one-row population with every body rendered.
func fakeRows(t *testing.T) *rowSet {
	t.Helper()
	rs := &rowSet{Rows: []map[string]float64{{"A": 1}}}
	for k := 0; k < numKinds; k++ {
		rs.Bodies[k] = [][]byte{[]byte(`{"features":{"A":1}}`)}
	}
	rs.Batches = [][]int{{0, 0}}
	rs.render()
	return rs
}

// fakeServer answers like supremm-serve, each answer after delay; after
// tamperAfter classify answers it starts reporting a different
// probability.
func fakeServer(tamperAfter int64, delay time.Duration) *httptest.Server {
	var classified atomic.Int64
	answer := func() map[string]any {
		p := 0.75
		if classified.Add(1) > tamperAfter {
			p = 0.74
		}
		return map[string]any{"label": "hpc", "probability": p, "classified": true, "defaulted": []string{}}
	}
	mux := http.NewServeMux()
	write := func(w http.ResponseWriter, v any) {
		time.Sleep(delay)
		_ = json.NewEncoder(w).Encode(v)
	}
	mux.HandleFunc("/api/classify", func(w http.ResponseWriter, _ *http.Request) { write(w, answer()) })
	mux.HandleFunc("/api/classify/batch", func(w http.ResponseWriter, _ *http.Request) {
		write(w, map[string]any{"results": []any{answer(), answer()}, "summary": map[string]any{"rows": 2}})
	})
	mux.HandleFunc("/api/runtime-class", func(w http.ResponseWriter, _ *http.Request) {
		write(w, map[string]any{"class": "short", "probability": 0.6, "classified": true,
			"probabilities": map[string]float64{"short": 0.6, "long": 0.4}, "generation": 1, "defaulted": []string{}})
	})
	mux.HandleFunc("/api/discover/assign", func(w http.ResponseWriter, _ *http.Request) {
		write(w, map[string]any{"cluster": 2, "distance": 0.5, "projection": []float64{1, 2}, "generation": 1, "defaulted": []string{}})
	})
	return httptest.NewServer(mux)
}

func runFake(t *testing.T, spec serveSpec, tamperAfter int64) *Report {
	t.Helper()
	ts := fakeServer(tamperAfter, 0)
	defer ts.Close()
	rep := newReport(spec.Name, false)
	s := &serveRun{spec: spec, seed: 1, rs: fakeRows(t), rep: rep, clusters: map[int]int{},
		want: map[int]string{0: "hpc|0.75|true"}}
	addr := strings.TrimPrefix(ts.URL, "http://")
	for i := 0; i < senders; i++ {
		s.senders = append(s.senders, &rawSender{addr: addr})
	}
	out := s.runPhase("reference", 200, 0.5, time.Second, false, nil)
	if out.Ops != 100 {
		t.Fatalf("ran %d ops", out.Ops)
	}
	return rep
}

func TestHonestAnswersPass(t *testing.T) {
	for _, spec := range []serveSpec{serveRows, serveBatchShadow} {
		if rep := runFake(t, spec, 1<<40); !rep.Correct() {
			t.Fatalf("%s: honest server failed checks: %v", spec.Name, rep.checks)
		}
	}
}

func TestTamperedAnswerTurnsRunRed(t *testing.T) {
	for _, spec := range []serveSpec{serveRows, serveBatchShadow} {
		rep := runFake(t, spec, 20)
		if rep.Correct() {
			t.Fatalf("%s: a tampered probability passed", spec.Name)
		}
		var failed int
		for _, p := range rep.phases {
			failed += p.Failed["wrong_answer"]
		}
		if failed == 0 {
			t.Fatalf("%s: wrong answers were not counted as failed operations", spec.Name)
		}
	}
}

// A server too slow for the reference rate leaves operations unsent at
// the phase deadline: they count as attempted and failed, and the run
// turns red. In a saturating capacity segment they are expected.
func TestUnsentAtDeadlineTurnsRunRed(t *testing.T) {
	ts := fakeServer(1<<40, 20*time.Millisecond)
	defer ts.Close()
	phase := func(saturate bool) (*Report, phaseStat) {
		rep := newReport("serve-rows", false)
		s := &serveRun{spec: serveRows, seed: 1, rs: fakeRows(t), rep: rep, clusters: map[int]int{},
			want: map[int]string{0: "hpc|0.75|true"}}
		for i := 0; i < senders; i++ {
			s.senders = append(s.senders, &rawSender{addr: strings.TrimPrefix(ts.URL, "http://")})
			defer s.senders[i].close()
		}
		out := s.runPhase("reference", 200, 0.5, 0, saturate, nil)
		if out.Acc.Unsent == 0 {
			t.Fatalf("a 20 ms server kept up with 200 req/s over 2 senders")
		}
		return rep, rep.phases[len(rep.phases)-1]
	}
	rep, st := phase(false)
	if rep.Correct() || st.Failed["unsent_at_deadline"] != st.Unsent || st.failed() != st.Unsent || st.Attempted != 100 {
		t.Fatalf("reference phase: correct=%v attempted=%d failed=%v unsent=%d", rep.Correct(), st.Attempted, st.Failed, st.Unsent)
	}
	rep, st = phase(true)
	if !rep.Correct() || st.failed() != 0 || st.Attempted+st.Unsent != 100 {
		t.Fatalf("capacity segment: attempted=%d failed=%v unsent=%d", st.Attempted, st.Failed, st.Unsent)
	}
}

func TestUnbalancedLedgerTurnsRunRed(t *testing.T) {
	balanced := lifecycle.Status{Generation: 3, Ledger: lifecycle.Ledger{Eligible: 10, Scored: 10, Agree: 7, Disagree: 3}}
	rep := newReport("x", false)
	checkLedger(rep, balanced, 3)
	if !rep.Correct() {
		t.Fatalf("balanced ledger failed: %v", rep.checks)
	}
	for name, st := range map[string]lifecycle.Status{
		"lost row":        {Generation: 3, Ledger: lifecycle.Ledger{Eligible: 10, Scored: 9, Agree: 6, Disagree: 3}},
		"shadow error":    {Generation: 3, Ledger: lifecycle.Ledger{Eligible: 10, Scored: 9, Errors: 1, Agree: 6, Disagree: 3}},
		"champion moved":  {Generation: 4, Ledger: balanced.Ledger},
		"nothing scored":  {Generation: 3},
		"verdicts missed": {Generation: 3, Ledger: lifecycle.Ledger{Eligible: 10, Scored: 10, Agree: 6, Disagree: 3}},
	} {
		rep := newReport("x", false)
		checkLedger(rep, st, 3)
		if rep.Correct() {
			t.Errorf("%s: ledger %+v passed", name, st.Ledger)
		}
	}
}

// streamOnce streams a short phase through an ingest system built with
// the given fault spec and returns the report.
func streamOnce(t *testing.T, faultSpec string) *Report {
	t.Helper()
	faults, err := resilience.ParseFaults(1, faultSpec)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := newIngestSystem(false, faults)
	if err != nil {
		t.Fatal(err)
	}
	sys.grace = 300 * time.Millisecond
	defer sys.close()
	tmpls, err := buildTemplates(1)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport("ingest-stream", false)
	st := buildStream(tmpls, 1, "check", 4000, 0.25)
	runIngestPhase(sys, st, "check", 0.25, refGrace, false, false, true, rep)
	return rep
}

func TestStreamSettles(t *testing.T) {
	if rep := streamOnce(t, ""); !rep.Correct() {
		t.Fatalf("healthy stream failed checks: %v", rep.checks)
	}
}

// A server whose read loop stalls acknowledges nothing: the records are
// unacked and the jobs invisible at the phase deadline, and the run
// turns red instead of hanging.
func TestStalledStreamTurnsRunRed(t *testing.T) {
	start := time.Now()
	rep := streamOnce(t, "ingest.conn=latency:1:2s")
	if rep.Correct() {
		t.Fatal("a stalled stream passed")
	}
	joined := fmt.Sprint(rep.checks)
	if !strings.Contains(joined, "unacked_at_deadline") && !strings.Contains(joined, "not_visible_at_deadline") {
		t.Fatalf("stall not reported as unacked or invisible records: %v", rep.checks)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("stalled phase took %v", d)
	}
}
