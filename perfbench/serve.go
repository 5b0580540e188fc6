package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
)

// serveSpec describes one serving workload.
type serveSpec struct {
	Name      string
	Lifecycle bool
	RefRate   float64 // requests per second at the reference rate
	RowsPerOp int     // rows one request carries
	// SatRate is the offered rate of the capacity segments, in requests
	// per second: several times any capacity seen, so the senders never
	// wait for the schedule and the server is kept saturated.
	SatRate float64
}

var (
	serveRows        = serveSpec{Name: "serve-rows", RefRate: 1000, RowsPerOp: 1, SatRate: 20000}
	serveBatchShadow = serveSpec{Name: "serve-batch-shadow", Lifecycle: true, RefRate: 20, RowsPerOp: 64, SatRate: 400}
)

const (
	serverSeed     = 2014 // supremm-serve's default -seed
	serverJobs     = 2000 // supremm-serve's default -jobs
	heldOutJobs    = 300
	batchRows      = 64
	batchBodies    = 48
	threshold      = 0.5
	senders        = 2 // one per CPU of the 2-CPU machine the workloads are sized for
	setupRepeats   = 2
	requestTimeout = 5 * time.Second
	reloadsPerSeg  = 4 // model reloads per serve-rows reference segment
	// extraSegments bounds the reference and capacity segment pairs a
	// run adds while too few of its windows are calm.
	extraSegments = 2
	// stealPad widens the stretch over which a short control operation's
	// steal is read, to span enough of the machine's CPU ticks.
	stealPad = 200 * time.Millisecond
	// The reference phase (--seconds long) is cut into segments, and a
	// capacity segment of satSeconds follows each one; max_rate is the
	// median completion rate over all capacity windows of satWindowMS.
	segments            = 4
	satSeconds          = 1.5
	satWindowMS float64 = 500
)

// Endpoint kinds of a serving operation.
const (
	kindClassify = iota
	kindRuntime
	kindAssign
	kindBatch
	numKinds
)

var kindPath = [numKinds]string{"/api/classify", "/api/runtime-class", "/api/discover/assign", "/api/classify/batch"}
var kindName = [numKinds]string{"classify", "runtime-class", "discover-assign", "batch"}

// rowSet is the held-out request population: rows featurized with
// core.DefaultFeatures from a workload generated with a seed the
// server never trained on, and every request body rendered up front.
type rowSet struct {
	Rows    []map[string]float64
	Bodies  [numKinds][][]byte
	Reqs    [numKinds][][]byte // each body as a whole HTTP/1.1 request
	Batches [][]int            // row indices of each batch body
}

// render prepares every request on the wire, headers and body.
func (rs *rowSet) render() {
	for k := 0; k < numKinds; k++ {
		rs.Reqs[k] = make([][]byte, len(rs.Bodies[k]))
		for i, body := range rs.Bodies[k] {
			head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
				kindPath[k], len(body))
			rs.Reqs[k][i] = append([]byte(head), body...)
		}
	}
}

func buildRows(seed uint64) (*rowSet, error) {
	res, err := core.RunPipeline(core.DefaultPipelineConfig(heldOutSeed(seed), heldOutJobs))
	if err != nil {
		return nil, fmt.Errorf("held-out workload: %w", err)
	}
	opt := core.DefaultFeatures()
	names := core.FeatureNames(opt)
	rs := &rowSet{}
	for _, x := range core.FeaturizeAll(res.Records, opt) {
		m := make(map[string]float64, len(x))
		for j, v := range x {
			m[names[j]] = v
		}
		rs.Rows = append(rs.Rows, m)
	}
	for _, m := range rs.Rows {
		for k, body := range []any{
			map[string]any{"features": m, "threshold": threshold},
			map[string]any{"features": m, "threshold": threshold},
			map[string]any{"features": m},
		} {
			b, err := json.Marshal(body)
			if err != nil {
				return nil, err
			}
			rs.Bodies[k] = append(rs.Bodies[k], b)
		}
	}
	r := rand.New(rand.NewPCG(seed, 0xBA7C))
	for b := 0; b < batchBodies; b++ {
		idx := make([]int, batchRows)
		rows := make([]map[string]float64, batchRows)
		for k := range idx {
			idx[k] = r.IntN(len(rs.Rows))
			rows[k] = rs.Rows[idx[k]]
		}
		body, err := json.Marshal(map[string]any{"rows": rows, "threshold": threshold})
		if err != nil {
			return nil, err
		}
		rs.Batches = append(rs.Batches, idx)
		rs.Bodies[kindBatch] = append(rs.Bodies[kindBatch], body)
	}
	rs.render()
	return rs, nil
}

// heldOutSeed maps the benchmark seed to a workload seed that is never
// the server's own training seed.
func heldOutSeed(seed uint64) uint64 {
	s := seed*1000003 + 7
	if s == serverSeed {
		s++
	}
	return s
}

// plan assigns each operation of a phase an endpoint and a body,
// deterministically from the seed and the phase.
type plan struct {
	Kind []uint8
	Body []int
}

func makePlan(spec serveSpec, rs *rowSet, seed uint64, phase string, n int) plan {
	h := uint64(14695981039346656037)
	for i := 0; i < len(phase); i++ {
		h = (h ^ uint64(phase[i])) * 1099511628211
	}
	r := rand.New(rand.NewPCG(seed, h))
	p := plan{Kind: make([]uint8, n), Body: make([]int, n)}
	for i := 0; i < n; i++ {
		if spec.RowsPerOp > 1 {
			p.Kind[i] = kindBatch
			p.Body[i] = r.IntN(len(rs.Batches))
			continue
		}
		switch u := r.IntN(10); {
		case u < 8:
			p.Kind[i] = kindClassify
		case u == 8:
			p.Kind[i] = kindRuntime
		default:
			p.Kind[i] = kindAssign
		}
		p.Body[i] = r.IntN(len(rs.Rows))
	}
	return p
}

// answers holds what the server said to each operation of a phase.
type answers struct {
	Status []int
	Body   [][]byte
	Err    []error
}

// httpSender owns one keep-alive connection.
type httpSender struct {
	cl   *http.Client
	base string
}

func newHTTPSender(addr string) *httpSender {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &httpSender{cl: &http.Client{Transport: tr, Timeout: requestTimeout}, base: "http://" + addr}
}

func (h *httpSender) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (h *httpSender) close() { h.cl.CloseIdleConnections() }

// rawSender speaks HTTP/1.1 over one keep-alive connection, writing
// requests rendered before the clock started: sending an operation is
// one write and one response read, with no marshalling and no
// transport goroutines competing with the server for the CPUs.
type rawSender struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
}

func (r *rawSender) do(req []byte) (int, []byte, error) {
	if r.conn == nil {
		c, err := net.DialTimeout("tcp", r.addr, requestTimeout)
		if err != nil {
			return 0, nil, err
		}
		r.conn, r.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	if err := r.conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		r.close()
		return 0, nil, err
	}
	if _, err := r.conn.Write(req); err != nil {
		r.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(r.br, nil)
	if err != nil {
		r.close()
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		r.close()
	}
	return resp.StatusCode, b, err
}

func (r *rawSender) close() {
	if r.conn != nil {
		r.conn.Close()
		r.conn, r.br = nil, nil
	}
}

// failReason classifies a failed operation.
func failReason(status int, err error) string {
	var ne net.Error
	switch {
	case err != nil && errors.As(err, &ne) && ne.Timeout():
		return "timeout"
	case err != nil:
		return "transport"
	case status >= 500:
		return "http_5xx"
	case status >= 400:
		return "http_4xx"
	case status != http.StatusOK:
		return "http_other"
	}
	return ""
}

// serveRun is one serving workload run against one spawned server.
type serveRun struct {
	spec     serveSpec
	seed     uint64
	rs       *rowSet
	srv      *child
	pid      int // the server process, for its CPU time (0: unknown)
	snapshot string
	rep      *Report
	want     map[int]string // row -> expected classify answer (label|prob|classified)
	clusters map[int]int    // row -> discovery cluster first seen
	senders  []*rawSender
	control  *httpSender
}

// phaseOut is one measured open-loop phase.
type phaseOut struct {
	T0        time.Time // when its schedule started
	Acc       Accounting
	Ops       int
	ProcCPU   time.Duration
	ServerCPU time.Duration
	Wrong     int
	// SvcMS and SvcN sum the client-side request time (send to answer,
	// excluding any wait before the send) of successful operations by
	// endpoint kind.
	SvcMS [numKinds]float64
	SvcN  [numKinds]int
}

// add folds a later phase into p, its times shifted by offsetMS.
func (p *phaseOut) add(q phaseOut, offsetMS float64) {
	p.Acc.add(q.Acc, offsetMS)
	p.Ops += q.Ops
	p.ProcCPU += q.ProcCPU
	p.ServerCPU += q.ServerCPU
	p.Wrong += q.Wrong
	for k := range q.SvcMS {
		p.SvcMS[k] += q.SvcMS[k]
		p.SvcN[k] += q.SvcN[k]
	}
}

// runPhase drives operations at rate req/s for seconds and checks every
// answer. An operation not started within grace of the schedule's end
// is left unsent: by design in a saturating capacity segment, and
// otherwise a failure.
func (s *serveRun) runPhase(name string, rate float64, seconds float64, grace time.Duration, saturate bool, during func(t0 time.Time)) phaseOut {
	n := int(math.Round(rate * seconds))
	p := makePlan(s.spec, s.rs, s.seed, name, n)
	ans := answers{Status: make([]int, n), Body: make([][]byte, n), Err: make([]error, n)}
	deadline := time.Duration(seconds*float64(time.Second)) + grace
	cpu0, _ := procCPU(s.pid)
	pcpu0 := processCPU()
	start := time.Now()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	if during != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			during(start)
			<-stop
		}()
	}
	due := func(i int) time.Duration { return dueAt(i, rate) }
	res := runOpenLoop(roundRobin(n, senders), due, beforeDeadline(deadline), false, func(snd, i int) bool {
		st, b, err := s.senders[snd].do(s.rs.Reqs[p.Kind[i]][p.Body[i]])
		ans.Status[i], ans.Body[i], ans.Err[i] = st, b, err
		return err != nil || st != http.StatusOK
	})
	close(stop)
	wg.Wait()
	out := phaseOut{Ops: n, T0: res.T0}
	out.ProcCPU = processCPU() - pcpu0
	if cpu1, err := procCPU(s.pid); err == nil && s.pid != 0 {
		out.ServerCPU = cpu1 - cpu0
	}
	st := phaseStat{Name: name, Failed: map[string]int{}}
	// Verify answers after the clock stops; a wrong answer is a failed
	// operation like a 5xx.
	for _, ops := range res.PerSender {
		for k := range ops {
			i := ops[k].I
			if !ops[k].Sent {
				st.Unsent++
				continue
			}
			st.Attempted++
			if r := failReason(ans.Status[i], ans.Err[i]); r != "" {
				st.Failed[r]++
				continue
			}
			if err := s.verify(int(p.Kind[i]), p.Body[i], ans.Body[i]); err != nil {
				st.Failed["wrong_answer"]++
				out.Wrong++
				ops[k].Failed = true
				if out.Wrong <= 3 {
					s.rep.Check(false, "%s: %s answer for body %d: %v", name, kindName[p.Kind[i]], p.Body[i], err)
				}
				continue
			}
			st.OK++
			out.SvcMS[p.Kind[i]] += ms(ops[k].End - ops[k].Start)
			out.SvcN[p.Kind[i]]++
		}
	}
	if out.Wrong > 3 {
		s.rep.Check(false, "%s: %d wrong answers in all", name, out.Wrong)
	}
	if !saturate {
		countUnsent(s.rep, &st)
	}
	out.Acc = res.accounting()
	st.Extra = fmt.Sprintf("rate=%.1f/s", rate)
	s.rep.Phase(st)
	return out
}

// verify checks one answer.
func (s *serveRun) verify(kind, body int, b []byte) error {
	switch kind {
	case kindClassify:
		return s.verifyClassify(body, b)
	case kindRuntime:
		var a struct {
			Class         string             `json:"class"`
			Probability   float64            `json:"probability"`
			Classified    bool               `json:"classified"`
			Probabilities map[string]float64 `json:"probabilities"`
			Generation    uint64             `json:"generation"`
			Defaulted     []string           `json:"defaulted"`
		}
		if err := json.Unmarshal(b, &a); err != nil {
			return err
		}
		sum, best := 0.0, 0.0
		for _, p := range a.Probabilities {
			sum += p
			best = math.Max(best, p)
		}
		switch {
		case a.Class == "" || len(a.Probabilities) < 2:
			return fmt.Errorf("no class or probability vector")
		case a.Probabilities[a.Class] != a.Probability || a.Probability != best:
			return fmt.Errorf("probability %v is not the top of %v", a.Probability, a.Probabilities)
		case math.Abs(sum-1) > 1e-6:
			return fmt.Errorf("probabilities sum to %v", sum)
		case a.Classified != (a.Probability >= threshold):
			return fmt.Errorf("classified=%v at probability %v", a.Classified, a.Probability)
		case a.Generation < 1 || len(a.Defaulted) != 0:
			return fmt.Errorf("generation %d, defaulted %v", a.Generation, a.Defaulted)
		}
		return nil
	case kindAssign:
		var a struct {
			Cluster    int       `json:"cluster"`
			Distance   float64   `json:"distance"`
			Projection []float64 `json:"projection"`
			Generation uint64    `json:"generation"`
			Defaulted  []string  `json:"defaulted"`
		}
		if err := json.Unmarshal(b, &a); err != nil {
			return err
		}
		if a.Cluster < 0 || !(a.Distance >= 0) || len(a.Projection) == 0 || a.Generation < 1 || len(a.Defaulted) != 0 {
			return fmt.Errorf("malformed assignment %s", b)
		}
		if c, ok := s.clusters[body]; ok && c != a.Cluster {
			return fmt.Errorf("row assigned to cluster %d, earlier to %d", a.Cluster, c)
		}
		s.clusters[body] = a.Cluster
		return nil
	case kindBatch:
		var a struct {
			Results []json.RawMessage `json:"results"`
			Summary struct {
				Rows int `json:"rows"`
			} `json:"summary"`
		}
		if err := json.Unmarshal(b, &a); err != nil {
			return err
		}
		rows := s.rs.Batches[body]
		if len(a.Results) != len(rows) || a.Summary.Rows != len(rows) {
			return fmt.Errorf("batch of %d rows answered %d results", len(rows), len(a.Results))
		}
		for k, r := range a.Results {
			if err := s.verifyClassify(rows[k], r); err != nil {
				return fmt.Errorf("row %d: %w", k, err)
			}
		}
		return nil
	}
	return fmt.Errorf("unknown kind %d", kind)
}

// verifyClassify compares a classify answer with what the model loaded
// offline from the server's -model-snapshot file gives for the row.
func (s *serveRun) verifyClassify(row int, b []byte) error {
	var a struct {
		Label       string   `json:"label"`
		Probability float64  `json:"probability"`
		Classified  bool     `json:"classified"`
		Defaulted   []string `json:"defaulted"`
	}
	if err := json.Unmarshal(b, &a); err != nil {
		return err
	}
	if len(a.Defaulted) != 0 {
		return fmt.Errorf("defaulted %v", a.Defaulted)
	}
	got := fmt.Sprintf("%s|%v|%v", a.Label, a.Probability, a.Classified)
	if got != s.want[row] {
		return fmt.Errorf("got %s, offline model says %s", got, s.want[row])
	}
	return nil
}

// loadOffline loads the classifier the server wrote to -model-snapshot
// and computes the expected classify answer of every held-out row.
func (s *serveRun) loadOffline() error {
	f, err := os.Open(s.snapshot)
	if err != nil {
		return err
	}
	defer f.Close()
	m, err := core.LoadJobClassifier(f)
	if err != nil {
		return fmt.Errorf("loading %s: %w", s.snapshot, err)
	}
	return s.expectFrom(m)
}

func (s *serveRun) expectFrom(m *core.JobClassifier) error {
	s.want = map[int]string{}
	for i, feats := range s.rs.Rows {
		x := make([]float64, len(m.Features))
		for j, name := range m.Features {
			v, ok := feats[name]
			if !ok {
				return fmt.Errorf("model feature %s missing from the held-out rows", name)
			}
			x[j] = v
		}
		label, prob, ok := m.Classify(x, threshold)
		s.want[i] = fmt.Sprintf("%s|%v|%v", label, prob, ok)
	}
	return nil
}

// serverArgs are the supremm-serve flags of a workload: defaults,
// plus the model snapshot, plus the lifecycle for the shadow workload.
func serverArgs(spec serveSpec, snapshot string) []string {
	args := []string{"-model-snapshot", snapshot}
	if spec.Lifecycle {
		args = append(args, "-lifecycle", "-lifecycle-spec", "auto=false")
	}
	return args
}

// scrape reads /metrics into series -> value.
func scrape(h *httpSender) (map[string]float64, error) {
	st, b, err := h.do(http.MethodGet, "/metrics", nil)
	if err != nil || st != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d: %v", st, err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// histMeanDelta is the mean of a histogram's observations between two
// scrapes, in microseconds, and the number of observations.
func histMeanDelta(before, after map[string]float64, name, labels string) (us float64, n float64) {
	key := func(suffix string) string {
		if labels == "" {
			return name + suffix
		}
		return name + suffix + "{" + labels + "}"
	}
	n = after[key("_count")] - before[key("_count")]
	if n <= 0 {
		return 0, 0
	}
	return (after[key("_sum")] - before[key("_sum")]) / n * 1e6, n
}

// lifecycleStatus reads GET /api/lifecycle.
func lifecycleStatus(h *httpSender) (lifecycle.Status, error) {
	var st lifecycle.Status
	code, b, err := h.do(http.MethodGet, "/api/lifecycle", nil)
	if err != nil || code != http.StatusOK {
		return st, fmt.Errorf("GET /api/lifecycle: status %d: %v", code, err)
	}
	return st, json.Unmarshal(b, &st)
}

// checkLedger applies the shadow ledger's conservation rule.
func checkLedger(rep *Report, st lifecycle.Status, wantGen uint64) {
	l := st.Ledger
	rep.Check(l.Eligible == l.Scored+l.Errors, "lifecycle ledger: eligible %d != scored %d + errors %d", l.Eligible, l.Scored, l.Errors)
	rep.Check(l.Errors == 0, "lifecycle ledger: %d shadow errors", l.Errors)
	rep.Check(l.Scored == l.Agree+l.Disagree, "lifecycle ledger: scored %d != agree %d + disagree %d", l.Scored, l.Agree, l.Disagree)
	rep.Check(l.Eligible > 0, "lifecycle ledger: no row was shadow-scored")
	rep.Check(st.Generation == wantGen, "lifecycle: champion generation moved from %d to %d", wantGen, st.Generation)
}

// runServe runs a serving workload. Untraced, it measures set-up (the
// median of setupRepeats spawns), latency at the reference rate, the
// capacity, peak RSS and the control operation. Traced,
// it measures the server's own counters and CPU over the reference
// phase and then replays the same bodies in process (see trace.go).
func runServe(spec serveSpec, cfg runConfig, rep *Report) error {
	rs, err := buildRows(cfg.Seed)
	if err != nil {
		return err
	}
	// The generator needs one CPU at most; a second P would only spin
	// on the CPUs the server under test needs. The in-process replays of
	// a traced run get all of them back.
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	snapshot := filepath.Join(cfg.Work, fmt.Sprintf("model-%s-%d.bin", spec.Name, os.Getpid()))
	defer os.Remove(snapshot)
	s := &serveRun{spec: spec, seed: cfg.Seed, rs: rs, snapshot: snapshot, rep: rep, clusters: map[int]int{}}

	repeats := setupRepeats
	if cfg.Trace {
		repeats = 1
	}
	var setups []float64
	for k := 0; k < repeats; k++ {
		c, d, err := spawnServer(cfg.ServeBin, cfg.Work, serverArgs(spec, snapshot), 120*time.Second)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if k < repeats-1 {
			c.stop()
			continue
		}
		s.srv, s.pid = c, c.Pid()
	}
	defer s.srv.stop()
	rep.Phase(phaseStat{Name: "setup", Attempted: repeats, OK: repeats, Extra: fmt.Sprintf("spawn-to-ready %v s", setups)})
	if err := s.loadOffline(); err != nil {
		return err
	}
	for i := 0; i < senders; i++ {
		s.senders = append(s.senders, &rawSender{addr: s.srv.Addr})
		defer s.senders[i].close()
	}
	s.control = newHTTPSender(s.srv.Addr)
	defer s.control.close()

	steal := startStealLog()
	defer steal.close()
	var gen uint64
	var retrains []window
	// retrain times one POST /admin/lifecycle/retrain, which installs a
	// freshly trained stack challenger. The first comes before the load;
	// the others, between segments, replace it with an equal one.
	retrain := func() error {
		t := time.Now()
		code, b, err := s.control.do(http.MethodPost, "/admin/lifecycle/retrain", []byte("{}"))
		d := time.Since(t)
		ok := err == nil && code == http.StatusOK
		rep.Check(ok, "retrain: status %d %v %s", code, err, b)
		rep.Phase(phaseStat{Name: fmt.Sprintf("retrain-%d", len(retrains)+1), Attempted: 1, OK: b2i(ok),
			Failed: failMap(!ok, "retrain"), Extra: fmt.Sprintf("%.3f s", d.Seconds())})
		retrains = append(retrains, window{Steal: steal.pct(t, t.Add(d)), Vals: []float64{ms(d)}})
		st, err := lifecycleStatus(s.control)
		if err != nil {
			return err
		}
		rep.Check(st.ChallengerReady, "retrain left no challenger shadowing (state %s)", st.State)
		if len(retrains) == 1 {
			gen = st.Generation
		}
		return nil
	}
	if spec.Lifecycle {
		if err := retrain(); err != nil {
			return err
		}
	}

	s.runPhase("warmup", spec.RefRate, 1, time.Second, false, nil)

	segSeconds := float64(cfg.Seconds) / segments
	type timed struct {
		at time.Time
		d  time.Duration
	}
	var reloads []timed
	reloadAttempted, reloadFailed := 0, 0
	var reloadMu sync.Mutex
	reloader := func(t0 time.Time) {
		if spec.Lifecycle {
			return
		}
		// Model reloads, evenly spread over the segment: writes beside
		// the ModelManager.View reads of every request.
		for k := 0; k < reloadsPerSeg; k++ {
			at := time.Duration((float64(k) + 0.5) / reloadsPerSeg * segSeconds * float64(time.Second))
			time.Sleep(time.Until(t0.Add(at)))
			t := time.Now()
			code, b, err := s.control.do(http.MethodPost, "/admin/model/reload", []byte(fmt.Sprintf(`{"path":%q}`, snapshot)))
			d := time.Since(t)
			ok := err == nil && code == http.StatusOK
			rep.Check(ok, "model reload: status %d %v %s", code, err, b)
			reloadMu.Lock()
			reloads = append(reloads, timed{t, d})
			reloadAttempted++
			reloadFailed += 1 - b2i(ok)
			reloadMu.Unlock()
		}
	}
	var before map[string]float64
	if cfg.Trace {
		if before, err = scrape(s.control); err != nil {
			return err
		}
	}
	// The reference phase and the capacity measurement alternate in
	// segments, so that neither sits wholly inside one slow spell of a
	// shared machine. Each segment is cut into windows tagged with the
	// CPU time stolen while they ran; while too few of them are calm,
	// up to extraSegments more pairs are measured. The traced run needs
	// only the reference phase, and the server's counters cover all of
	// it, so it measures no extra segments.
	wps := max(1, int(math.Round(segSeconds))) // latency windows per segment
	capPerSeg := int(satSeconds * 1000 / satWindowMS)
	var ref phaseOut
	var latWins, capWins, reloadWins []window
	short := func() bool {
		return calmCount(latWins) < segments*wps || calmCount(capWins) < segments*capPerSeg ||
			(!spec.Lifecycle && calmCount(reloadWins) < segments*reloadsPerSeg) ||
			(spec.Lifecycle && calmCount(retrains) < 1+segments/2)
	}
	measured := time.Now()
	for k := 0; k < segments || (!cfg.Trace && k < segments+extraSegments && short()); k++ {
		name := fmt.Sprintf("reference-%d", k+1)
		reloadMu.Lock()
		from := len(reloads)
		reloadMu.Unlock()
		out := s.runPhase(name, spec.RefRate, segSeconds, time.Second, false, reloader)
		ref.add(out, float64(k)*segSeconds*1000)
		wd := time.Duration(segSeconds / float64(wps) * float64(time.Second))
		for i, lat := range splitByDue(out.Acc, segSeconds*1000, wps) {
			a := out.T0.Add(time.Duration(i) * wd)
			latWins = append(latWins, window{Steal: steal.pct(a, a.Add(wd)), Vals: lat})
		}
		for _, r := range reloads[from:] {
			reloadWins = append(reloadWins, window{Steal: steal.pct(r.at.Add(-stealPad), r.at.Add(r.d+stealPad)), Vals: []float64{ms(r.d)}})
		}
		if cfg.Trace {
			continue
		}
		name = fmt.Sprintf("capacity-%d", k+1)
		sat := s.runPhase(name, spec.SatRate, satSeconds, 0, true, nil)
		rep.Check(sat.Acc.Unsent > 0, "%s sent all it offered at %.0f req/s: the server was not saturated", name, spec.SatRate)
		units := make([]float64, len(sat.Acc.EndMS))
		for i := range units {
			units[i] = float64(spec.RowsPerOp)
		}
		wc := time.Duration(satWindowMS * float64(time.Millisecond))
		for i, rate := range windowRates(sat.Acc.EndMS, units, satSeconds*1000, satWindowMS) {
			a := sat.T0.Add(time.Duration(i) * wc)
			capWins = append(capWins, window{Steal: steal.pct(a, a.Add(wc)), Vals: []float64{rate}})
		}
		if spec.Lifecycle && k%2 == 1 {
			if err := retrain(); err != nil {
				return err
			}
		}
	}
	rep.Note("CPU time stolen by the hypervisor while measuring: %.1f%%", steal.pct(measured, time.Now()))
	var control float64 // ms
	if spec.Lifecycle {
		used := pickCalm(retrains, 1+segments/2)
		control = median(pooled(used))
		rep.Note("retrain_s = %.4f s (median of %s, control_ms)", control/1000, describe(retrains, used, "challenger retrains"))
	} else {
		rep.Phase(phaseStat{Name: "reload", Attempted: reloadAttempted, OK: reloadAttempted - reloadFailed,
			Failed: failMap(reloadFailed > 0, "reload")})
		used := pickCalm(reloadWins, segments*reloadsPerSeg)
		control = median(pooled(used))
		rep.Note("reload_ms = %.4f ms (median of %s, control_ms)", control, describe(reloadWins, used, "model reloads"))
	}
	lat := distOf(append([]float64(nil), ref.Acc.LatencyMS...))
	rep.Note("reference latency ms (from due time): %s; tail %s=%.3f", lat, lat.Tail, lat.TailValue)
	late := distOf(append([]float64(nil), ref.Acc.LateMS...))
	rep.Note("generator lateness ms: %s; tail %s=%.3f", late, late.Tail, late.TailValue)
	rows := float64(ref.Ops * spec.RowsPerOp)
	rep.Note("cpu per request: server %.1f us, generator %.1f us", us(ref.ServerCPU)/float64(ref.Ops), us(ref.ProcCPU)/float64(ref.Ops))

	if spec.Lifecycle {
		// Each batch must equal its rows classified one at a time.
		idx := s.rs.Batches[0]
		code, b, err := s.control.do(http.MethodPost, kindPath[kindBatch], s.rs.Bodies[kindBatch][0])
		rep.Check(err == nil && code == http.StatusOK, "batch for single-row comparison: %d %v", code, err)
		var batch struct {
			Results []json.RawMessage `json:"results"`
		}
		_ = json.Unmarshal(b, &batch)
		rep.Check(len(batch.Results) == len(idx), "batch answered %d of %d rows", len(batch.Results), len(idx))
		for k := 0; k < len(idx) && k < len(batch.Results); k++ {
			code, single, err := s.control.do(http.MethodPost, kindPath[kindClassify], s.rs.Bodies[kindClassify][idx[k]])
			rep.Check(err == nil && code == http.StatusOK && bytes.Equal(bytes.TrimSpace(single), bytes.TrimSpace(batch.Results[k])),
				"batch row %d %s differs from the row classified alone %s", k, batch.Results[k], single)
		}
	}

	if cfg.Trace {
		after, err := scrape(s.control)
		if err != nil {
			return err
		}
		reqUS, _ := histMeanDelta(before, after, "http_request_seconds", `path="/api/classify"`)
		if spec.Lifecycle {
			reqUS, _ = histMeanDelta(before, after, "http_request_seconds", `path="/api/classify/batch"`)
		}
		rep.Set("server.request_us", reqUS)
		kind := kindClassify
		if spec.Lifecycle {
			kind = kindBatch
		}
		rep.Set("net.transport_us", ref.SvcMS[kind]/float64(ref.SvcN[kind])*1000-reqUS)
		infer, _ := histMeanDelta(before, after, "classify_row_seconds", "")
		rep.Set("core.infer_us", infer)
		pool, _ := histMeanDelta(before, after, "pool_task_seconds", "")
		rep.Set("server.batch_pool_us", pool)
		rep.Set("sut.cpu_us_per_op", us(ref.ServerCPU)/rows)
		rep.Set("loadgen.cpu_us_per_op", us(ref.ProcCPU)/rows)
		rep.Set("loadgen.late_tail_ms", late.TailValue)
		ratio := 0.0
		if spec.Lifecycle {
			st, err := lifecycleStatus(s.control)
			if err != nil {
				return err
			}
			checkLedger(rep, st, gen)
			if st.Ledger.Eligible > 0 {
				ratio = float64(st.Ledger.Scored) / float64(st.Ledger.Eligible)
			}
		}
		rep.Set("lifecycle.shadow_useful_ratio", ratio)
		s.srv.stop()
		runtime.GOMAXPROCS(procs)
		return traceServe(spec, cfg, s, rep)
	}

	capUsed := pickCalm(capWins, segments*capPerSeg)
	maxRate := median(pooled(capUsed))
	rep.Note("max_rate: median of %s of %.0f ms, rows/s %.0f", describe(capWins, capUsed, "capacity windows"), satWindowMS, pooled(capUsed))

	if spec.Lifecycle {
		st, err := lifecycleStatus(s.control)
		if err != nil {
			return err
		}
		checkLedger(rep, st, gen)
		rep.Note("shadow ledger: eligible=%d scored=%d errors=%d agree=%d", st.Ledger.Eligible, st.Ledger.Scored, st.Ledger.Errors, st.Ledger.Agree)
	}
	rss, err := peakRSSMB(strconv.Itoa(s.srv.Pid()))
	if err != nil {
		return err
	}
	rep.Set("setup_s", median(setups))
	latUsed := pickCalm(latWins, segments*wps)
	p50, p90, perWindow := windowed(latUsed)
	how := "pooled over"
	if perWindow {
		how = "median over"
	}
	rep.Note("p50_ms and p90_ms: %s %s of the reference phase", how, describe(latWins, latUsed, "latency windows"))
	rep.Set("p50_ms", p50)
	rep.Set("p90_ms", p90)
	rep.Set("max_rate", maxRate)
	rep.Set("peak_rss_mb", rss)
	rep.Set("control_ms", control)
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func b2i(ok bool) int {
	if ok {
		return 1
	}
	return 0
}

func failMap(failed bool, reason string) map[string]int {
	if failed {
		return map[string]int{reason: 1}
	}
	return map[string]int{}
}
