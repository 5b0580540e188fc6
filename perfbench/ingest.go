package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/summarize"
	"repro/internal/taccstats"
	"repro/internal/warehouse"
)

const (
	ingestRefRate   = 12000  // records per second
	ingestSatRate   = 120000 // records per second, over twice any capacity seen
	ingestTemplates = 96
	ingestMaxHosts  = 8
	ingestWallCap   = 6000 // seconds of job wall time, ~10 samples per host
	chunkSamples    = 4
	queryRate       = 20 // snapshot + group-by queries per second
	ingestSetups    = 21
	refGrace        = 100 * time.Millisecond
	phaseGrace      = 10 * time.Second
)

// jobTemplate is one generated job: its accounting metadata, its
// per-node samples, and its summary computed offline the way the batch
// pipeline would. A stream replays templates under fresh job ids.
type jobTemplate struct {
	meta    ingest.JobMeta
	nodes   []taccstats.NodeArchive
	records int
	ref     *summarize.Summary
	encoded [][]byte // wire frames of its chunks, for the decode replay
}

func buildTemplates(seed uint64) ([]*jobTemplate, error) {
	gen := cluster.NewGenerator(cluster.Stampede(), cluster.DefaultConfig(heldOutSeed(seed)))
	cfg := taccstats.DefaultConfig()
	r := rng.New(seed ^ 0x1A2B3C)
	var out []*jobTemplate
	for _, j := range gen.Generate(ingestTemplates) {
		if len(j.Hosts) > ingestMaxHosts {
			j.Hosts = j.Hosts[:ingestMaxHosts]
		}
		if j.Draw.WallSeconds > ingestWallCap {
			j.Draw.WallSeconds = ingestWallCap
		}
		arch := taccstats.Collect(cfg, taccstats.JobInfo{ID: j.ID, Start: j.Start, Hosts: j.Hosts}, j.Draw, r.Split(uint64(len(out))))
		t := &jobTemplate{
			meta: ingest.JobMeta{
				User: j.User, AppLabel: j.App.Name, Category: string(j.App.Category),
				Pop: j.Population.String(), Nodes: len(j.Hosts), Cores: len(j.Hosts) * cfg.CoresPerNode,
				Submit: j.Submit, Start: j.Start,
			},
			nodes: arch.Nodes,
		}
		for i := range arch.Nodes {
			t.records += len(arch.Nodes[i].Samples)
		}
		// The reference summary: canonical text round trip, host-sorted,
		// exactly as a job summarized from the spool.
		nodes := append([]taccstats.NodeArchive(nil), arch.Nodes...)
		sort.Slice(nodes, func(a, b int) bool { return nodes[a].Host < nodes[b].Host })
		var buf bytes.Buffer
		if err := (&taccstats.Archive{JobID: arch.JobID, Nodes: nodes}).Encode(&buf); err != nil {
			return nil, err
		}
		dec, err := taccstats.Decode(&buf)
		if err != nil {
			return nil, err
		}
		if t.ref, err = summarize.Summarize(dec, cfg, summarize.Options{SkipBadNodes: true}); err != nil {
			return nil, err
		}
		for _, c := range t.chunks("x") {
			payload, err := taccstats.EncodeChunk(c)
			if err != nil {
				return nil, err
			}
			t.encoded = append(t.encoded, ingest.AppendFrame(nil, &ingest.Frame{Type: ingest.FrameData, Records: uint16(len(c.Samples)), Seq: 1, Payload: payload}))
		}
		out = append(out, t)
	}
	return out, nil
}

// chunks splits the template's samples into chunks of chunkSamples,
// round-robin across its hosts the way independent collectors
// interleave, under job id id.
func (t *jobTemplate) chunks(id string) []*taccstats.Chunk {
	var out []*taccstats.Chunk
	for off := 0; ; off += chunkSamples {
		sent := false
		for i := range t.nodes {
			s := t.nodes[i].Samples
			if off >= len(s) {
				continue
			}
			end := min(off+chunkSamples, len(s))
			out = append(out, &taccstats.Chunk{JobID: id, Host: t.nodes[i].Host, Samples: s[off:end]})
			sent = true
		}
		if !sent {
			return out
		}
	}
}

// frame is one scheduled send of a stream: a job's meta or one chunk.
type frame struct {
	job   int // index into stream.jobs
	first bool
	meta  *ingest.JobMeta
	chunk *taccstats.Chunk
	due   time.Duration
}

// streamJob is one job of a stream.
type streamJob struct {
	id      string
	tmpl    *jobTemplate
	records int
	lastDue time.Duration
	started bool // set by its sender
}

// stream is a phase's schedule: jobs replayed from templates at a fixed
// record rate, each job's frames consecutive, jobs alternating between
// the two clients.
type stream struct {
	jobs   []*streamJob
	frames []frame
	assign [][]int
}

func buildStream(tmpls []*jobTemplate, seed uint64, phase string, rate float64, seconds float64) *stream {
	st := &stream{assign: make([][]int, senders)}
	total := int(rate * seconds)
	records := 0
	for k := 0; records < total; k++ {
		t := tmpls[(k*7+int(seed))%len(tmpls)]
		j := &streamJob{id: fmt.Sprintf("%s-%d-%d", phase, seed, k), tmpl: t, records: t.records}
		st.jobs = append(st.jobs, j)
		meta := t.meta
		meta.JobID = j.id
		due := dueAt(records, rate)
		snd := k % senders
		st.assign[snd] = append(st.assign[snd], len(st.frames))
		st.frames = append(st.frames, frame{job: k, first: true, meta: &meta, due: due})
		for _, c := range t.chunks(j.id) {
			due = dueAt(records, rate)
			records += len(c.Samples)
			st.assign[snd] = append(st.assign[snd], len(st.frames))
			st.frames = append(st.frames, frame{job: k, chunk: c, due: due})
		}
		j.lastDue = due
	}
	return st
}

// visibleSink stamps when each job's record leaves Sharded.Ingest, the
// moment a query can see it, and keeps every record it applied.
type visibleSink struct {
	wh      *warehouse.Sharded
	timed   bool
	applyNS atomic.Int64
	applies atomic.Int64

	mu      sync.Mutex
	visible map[string]time.Time
	recs    []*warehouse.Record
}

func (s *visibleSink) Ingest(r *warehouse.Record) error {
	var start time.Time
	if s.timed {
		start = time.Now()
	}
	err := s.wh.Ingest(r)
	now := time.Now()
	if s.timed {
		s.applyNS.Add(int64(now.Sub(start)))
		s.applies.Add(1)
	}
	if err == nil {
		s.mu.Lock()
		s.visible[r.JobID] = now
		s.recs = append(s.recs, r)
		s.mu.Unlock()
	}
	return err
}

func (s *visibleSink) seen(id string) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.visible[id]
	return t, ok
}

// ingestSystem is the system under test: ingest.NewServer over
// warehouse.NewSharded, with supremm-ingestd's defaults.
type ingestSystem struct {
	reg     *obs.Registry
	sink    *visibleSink
	srv     *ingest.Server
	lis     net.Listener
	clients []*ingest.Client
	grace   time.Duration // how long a phase may take to settle
	closed  bool
	streams []*stream // everything streamed into it, for the checks
}

func newIngestSystem(timed bool, faults *resilience.Faults) (*ingestSystem, error) {
	sys := &ingestSystem{reg: obs.NewRegistry(), grace: phaseGrace}
	sys.sink = &visibleSink{
		wh:      warehouse.NewSharded(warehouse.ShardedConfig{Shards: 4, RollupSeconds: 3600}),
		timed:   timed,
		visible: map[string]time.Time{},
	}
	fcfg := flight.DefaultConfig()
	srv, err := ingest.NewServer(ingest.Config{
		Shards: 4, QueueDepth: 1024, IdleTimeout: 30 * time.Second,
		Sink: sys.sink, Obs: sys.reg, Flight: flight.NewRecorder(fcfg), Faults: faults,
	})
	if err != nil {
		return nil, err
	}
	sys.srv = srv
	if sys.lis, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		srv.Close()
		return nil, err
	}
	go func() { _ = srv.Serve(sys.lis) }()
	for i := 0; i < senders; i++ {
		c, err := ingest.NewClient(ingest.ClientConfig{Addr: sys.lis.Addr().String(), ID: fmt.Sprintf("perfbench-%d", i)})
		if err != nil {
			srv.Close()
			return nil, err
		}
		sys.clients = append(sys.clients, c)
	}
	return sys, nil
}

// ready waits until the listener accepts a connection.
func (sys *ingestSystem) ready() error {
	c, err := net.DialTimeout("tcp", sys.lis.Addr().String(), 5*time.Second)
	if err != nil {
		return err
	}
	return c.Close()
}

// close drains the server and tears the clients down; closing again
// does nothing.
func (sys *ingestSystem) close() {
	if sys.closed {
		return
	}
	sys.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, c := range sys.clients {
		_ = c.Close(ctx)
	}
	sys.srv.Drain()
}

// finish drains the system, checks everything streamed into it and
// returns its own counters.
func (sys *ingestSystem) finish(rep *Report) systemStats {
	sys.close()
	checkIngest(sys, rep)
	h := sys.reg.Histogram("ingest_finalize_seconds", nil)
	st := systemStats{FinSum: h.Sum(), FinN: h.Count(), ApplyNS: sys.sink.applyNS.Load(), Applies: sys.sink.applies.Load()}
	for _, o := range []string{"ok", "duplicate", "decode_error", "meta_shed"} {
		v := sys.reg.Counter("ingest_frames_total", "outcome", o).Value()
		st.Frames += v
		if o == "duplicate" {
			st.Dups = v
		}
	}
	for _, c := range sys.clients {
		st.Reconnects += c.Stats().Reconnects - 1 // the first connect is not a reconnect
	}
	led := sys.srv.Ledger().Snapshot()
	st.Dropped, st.DroppedSum = led.Dropped, led.DroppedSum
	return st
}

// ingestPhase is the outcome of one streamed phase.
type ingestPhase struct {
	T0         time.Time  // when its schedule started
	Acc        Accounting // per job: latency from last frame due to visible
	JobRecords []float64  // records of each job in Acc, in the same order
	Frames     Accounting // per frame: generator lateness
	Records    int
	SenderCPU  time.Duration
	ProcCPU    time.Duration
	SendNS     int64
	Sends      int64
	Queries    []float64 // snapshot + group-by, ms
	QueryAt    []time.Time
	SnapUS     []float64
	GroupUS    []float64
	PendMax    int64
	DepthMax   float64
	Sys        systemStats // the counters of the system it streamed into
}

// systemStats is what a drained system's own counters say.
type systemStats struct {
	FinSum     float64 // ingest_finalize_seconds
	FinN       uint64
	Frames     uint64 // ingest_frames_total, all outcomes
	Dups       uint64 // ingest_frames_total{outcome="duplicate"}
	Reconnects uint64
	Dropped    map[string]uint64
	DroppedSum uint64
	ApplyNS    int64 // time inside Sharded.Ingest, when timed
	Applies    int64
}

func (a *systemStats) add(b systemStats) {
	a.FinSum += b.FinSum
	a.FinN += b.FinN
	a.Frames += b.Frames
	a.Dups += b.Dups
	a.Reconnects += b.Reconnects
	if a.Dropped == nil {
		a.Dropped = map[string]uint64{}
	}
	for r, n := range b.Dropped {
		a.Dropped[r] += n
	}
	a.DroppedSum += b.DroppedSum
	a.ApplyNS += b.ApplyNS
	a.Applies += b.Applies
}

// add folds a later phase into p, its times shifted by offsetMS.
func (p *ingestPhase) add(q ingestPhase, offsetMS float64) {
	p.Acc.add(q.Acc, offsetMS)
	p.JobRecords = append(p.JobRecords, q.JobRecords...)
	p.Frames.add(q.Frames, offsetMS)
	p.Records += q.Records
	p.SenderCPU += q.SenderCPU
	p.ProcCPU += q.ProcCPU
	p.SendNS += q.SendNS
	p.Sends += q.Sends
	p.Queries = append(p.Queries, q.Queries...)
	p.QueryAt = append(p.QueryAt, q.QueryAt...)
	p.SnapUS = append(p.SnapUS, q.SnapUS...)
	p.GroupUS = append(p.GroupUS, q.GroupUS...)
	p.PendMax = max(p.PendMax, q.PendMax)
	p.DepthMax = math.Max(p.DepthMax, q.DepthMax)
	p.Sys.add(q.Sys)
}

// runIngestPhase streams one phase and waits, bounded, for every
// started job to become visible. A job not started within grace of the
// schedule's end is left unsent: by design in a saturating capacity
// segment, and otherwise a failure.
func runIngestPhase(sys *ingestSystem, st *stream, name string, seconds float64, grace time.Duration, traced, saturate, queries bool, rep *Report) ingestPhase {
	var out ingestPhase
	deadline := time.Duration(seconds*float64(time.Second)) + grace
	ctx, cancel := context.WithTimeout(context.Background(), deadline+sys.grace)
	defer cancel()
	canStart := func(i int, now time.Duration) bool {
		f := &st.frames[i]
		j := st.jobs[f.job]
		if f.first {
			// A job starts only before the deadline; once started, its
			// frames are all sent, late or not, so no job is cut.
			j.started = now < deadline
		}
		return j.started
	}
	var sendNS, sends atomic.Int64
	do := func(snd, i int) bool {
		f := &st.frames[i]
		var t time.Time
		if traced {
			t = time.Now()
		}
		var err error
		if f.meta != nil {
			err = sys.clients[snd].SendMeta(ctx, f.meta)
		} else {
			err = sys.clients[snd].SendChunk(ctx, f.chunk)
		}
		if traced {
			sendNS.Add(int64(time.Since(t)))
			sends.Add(1)
		}
		return err != nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var qmu sync.Mutex
	if queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				case <-time.After(time.Until(t0.Add(time.Duration(k) * time.Second / queryRate))):
				}
				a := time.Now()
				snap := sys.sink.wh.Snapshot()
				b := time.Now()
				groups := snap.GroupBy(warehouse.ByApplication)
				c := time.Now()
				jobs := 0
				for _, g := range groups {
					jobs += g.Jobs
				}
				qmu.Lock()
				out.Queries = append(out.Queries, ms(c.Sub(a)))
				out.QueryAt = append(out.QueryAt, a)
				out.SnapUS = append(out.SnapUS, us(b.Sub(a)))
				out.GroupUS = append(out.GroupUS, us(c.Sub(b)))
				qmu.Unlock()
				rep.Check(jobs == snap.Len(), "group-by counts %d jobs of a %d-job snapshot", jobs, snap.Len())
			}
		}()
	}
	if traced {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				s := sys.srv.Status()
				qmu.Lock()
				out.PendMax = max(out.PendMax, s.Pending)
				for _, d := range s.ShardDepths {
					out.DepthMax = math.Max(out.DepthMax, d)
				}
				qmu.Unlock()
			}
		}()
	}

	pcpu0 := processCPU()
	// Only the traced run pins the senders to threads, to split the
	// process's CPU between generator and system: pinning makes every
	// sender wake-up a thread hand-off, which the untraced run must not
	// pay.
	res := runOpenLoop(st.assign, func(i int) time.Duration { return st.frames[i].due }, canStart, traced, do)

	// Settle: every sent frame acknowledged and every started job
	// visible, within the phase's bound.
	stat := phaseStat{Name: name, Failed: map[string]int{}}
	for _, c := range sys.clients {
		if err := c.Flush(ctx); err != nil {
			stat.Failed["unacked_at_deadline"] += int(c.Stats().RecordsSent - c.Stats().RecordsAcked)
		}
	}
	for _, j := range st.jobs {
		if !j.started {
			continue
		}
		for {
			if _, ok := sys.sink.seen(j.id); ok || ctx.Err() != nil {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	out.ProcCPU = processCPU() - pcpu0
	close(stop)
	wg.Wait()
	out.T0 = res.T0
	out.SenderCPU = res.SenderCPU
	out.SendNS, out.Sends = sendNS.Load(), sends.Load()

	for _, ops := range res.PerSender {
		account(&out.Frames, ops)
	}
	var jobOps []Op
	for _, j := range st.jobs {
		if !j.started {
			stat.Unsent++
			jobOps = append(jobOps, Op{})
			continue
		}
		stat.Attempted++
		out.Records += j.records
		vis, ok := sys.sink.seen(j.id)
		if !ok {
			stat.Failed["not_visible_at_deadline"]++
			jobOps = append(jobOps, Op{Due: j.lastDue, Start: j.lastDue, Sent: true, Failed: true})
			continue
		}
		stat.OK++
		end := vis.Sub(res.T0)
		jobOps = append(jobOps, Op{Due: j.lastDue, Start: j.lastDue, End: end, Sent: true})
		out.JobRecords = append(out.JobRecords, float64(j.records))
	}
	if n := out.Frames.Failed; n > 0 {
		stat.Failed["send_error"] += n
	}
	account(&out.Acc, jobOps)
	out.Acc.Failed += out.Frames.Failed
	stat.Extra = fmt.Sprintf("rate=%.0f rec/s records=%d", float64(out.Records)/seconds, out.Records)
	for r, n := range stat.Failed {
		rep.Check(n == 0, "%s: %d %s", name, n, r)
	}
	if !saturate {
		countUnsent(rep, &stat)
	}
	rep.Phase(stat)
	return out
}

// runIngest runs the streaming-ingest workload in process.
func runIngest(cfg runConfig, rep *Report) error {
	tmpls, err := buildTemplates(cfg.Seed)
	if err != nil {
		return err
	}
	// Set-up: the system built and accepting connections. Building it
	// allocates the flight recorder's rings, so each build starts after a
	// full collection: the garbage of the one before is not charged to it.
	var setups []float64
	for k := 0; k < ingestSetups; k++ {
		runtime.GC()
		t := time.Now()
		sys, err := newIngestSystem(cfg.Trace, nil)
		if err != nil {
			return err
		}
		err = sys.ready()
		setups = append(setups, since(t))
		sys.close()
		if err != nil {
			return err
		}
	}
	rep.Phase(phaseStat{Name: "setup", Attempted: ingestSetups, OK: ingestSetups, Extra: fmt.Sprintf("median %.6f s", median(setups))})

	// Every phase streams into a fresh system built the same way, so the
	// warehouse a reference segment writes and queries holds the same
	// jobs however many segments came before it and whatever the
	// capacity was.
	var buildErr error
	phase := func(name string, rate, seconds float64, grace time.Duration, saturate, queries bool) ingestPhase {
		sys, err := newIngestSystem(cfg.Trace, nil)
		if err == nil {
			if err = sys.ready(); err != nil {
				sys.close()
			}
		}
		if err != nil {
			buildErr = errors.Join(buildErr, err)
			return ingestPhase{}
		}
		st := buildStream(tmpls, cfg.Seed, name, rate, seconds)
		sys.streams = append(sys.streams, st)
		out := runIngestPhase(sys, st, name, seconds, grace, cfg.Trace, saturate, queries, rep)
		out.Sys = sys.finish(rep)
		return out
	}
	steal := startStealLog()
	defer steal.close()
	phase("warmup", ingestRefRate, 1, refGrace, false, false)
	// Reference and capacity segments alternate, each cut into windows
	// tagged with the CPU time stolen while they ran, as for serving.
	segSeconds := float64(cfg.Seconds) / segments
	wps := max(1, int(math.Round(segSeconds)))
	capPerSeg := int(satSeconds * 1000 / satWindowMS)
	var ref ingestPhase
	var latWins, queryWins, capWins []window
	short := func() bool {
		return calmCount(latWins) < segments*wps || calmCount(capWins) < segments*capPerSeg
	}
	measured := time.Now()
	for k := 0; k < segments || (!cfg.Trace && k < segments+extraSegments && short()); k++ {
		out := phase(fmt.Sprintf("reference-%d", k+1), ingestRefRate, segSeconds, refGrace, false, true)
		ref.add(out, float64(k)*segSeconds*1000)
		wd := time.Duration(segSeconds / float64(wps) * float64(time.Second))
		for i, lat := range splitByDue(out.Acc, segSeconds*1000, wps) {
			a := out.T0.Add(time.Duration(i) * wd)
			st := steal.pct(a, a.Add(wd))
			latWins = append(latWins, window{Steal: st, Vals: lat})
			var q []float64
			for j, at := range out.QueryAt {
				if !at.Before(a) && at.Before(a.Add(wd)) {
					q = append(q, out.Queries[j])
				}
			}
			queryWins = append(queryWins, window{Steal: st, Vals: q})
		}
		if cfg.Trace {
			continue
		}
		name := fmt.Sprintf("capacity-%d", k+1)
		sat := phase(name, ingestSatRate, satSeconds, 0, true, false)
		rep.Check(sat.Acc.Unsent > 0, "%s started every job it offered at %d records/s: the system was not saturated", name, ingestSatRate)
		wc := time.Duration(satWindowMS * float64(time.Millisecond))
		for i, rate := range windowRates(sat.Acc.EndMS, sat.JobRecords, satSeconds*1000, satWindowMS) {
			a := sat.T0.Add(time.Duration(i) * wc)
			capWins = append(capWins, window{Steal: steal.pct(a, a.Add(wc)), Vals: []float64{rate}})
		}
	}
	if buildErr != nil {
		return buildErr
	}
	rep.Note("CPU time stolen by the hypervisor while measuring: %.1f%%", steal.pct(measured, time.Now()))
	lat := distOf(append([]float64(nil), ref.Acc.LatencyMS...))
	late := distOf(append([]float64(nil), ref.Frames.LateMS...))
	queryUsed := pickCalm(queryWins, segments*wps)
	q := distOf(pooled(queryUsed))
	rep.Note("job-visible latency ms (from the due time of the job's last frame): %s; tail %s=%.3f", lat, lat.Tail, lat.TailValue)
	rep.Note("generator lateness ms per frame: %s; tail %s=%.3f", late, late.Tail, late.TailValue)
	rep.Note("query_p50_ms = %.4f ms (snapshot + group-by by application, control_ms) over %s: %s", q.P50, describe(queryWins, queryUsed, "latency windows"), q)
	sutCPU := ref.ProcCPU - ref.SenderCPU
	rep.Note("cpu per record: system %.2f us, sender threads %.2f us", us(sutCPU)/float64(ref.Records), us(ref.SenderCPU)/float64(ref.Records))

	if cfg.Trace {
		sys := ref.Sys
		rep.Set("ingest.send_wait_us", float64(ref.SendNS)/float64(max(ref.Sends, 1))/1e3)
		rep.Set("ingest.pending_max", float64(ref.PendMax))
		rep.Set("ingest.shard_depth_max", ref.DepthMax)
		rep.Set("ingest.finalize_us", sys.FinSum/float64(max(sys.FinN, 1))*1e6)
		rep.Set("ingest.duplicate_ratio", float64(sys.Dups)/float64(max(sys.Frames, 1)))
		rep.Set("ingest.reconnects", float64(sys.Reconnects))
		rep.Set("ingest.dropped", float64(sys.DroppedSum))
		rep.Note("ingest drops by reason: %v", sys.Dropped)
		rep.Set("warehouse.apply_us", float64(sys.ApplyNS)/float64(max(sys.Applies, 1))/1e3)
		rep.Set("warehouse.snapshot_us", median(ref.SnapUS))
		rep.Set("warehouse.groupby_us", median(ref.GroupUS))
		rep.Set("sut.cpu_us_per_op", us(sutCPU)/float64(ref.Records))
		rep.Set("loadgen.cpu_us_per_op", us(ref.SenderCPU)/float64(ref.Records))
		rep.Set("loadgen.late_tail_ms", late.TailValue)
		traceIngestStages(tmpls, rep)
		return nil
	}
	capUsed := pickCalm(capWins, segments*capPerSeg)
	rep.Note("max_rate: median of %s of %.0f ms, records/s %.0f", describe(capWins, capUsed, "capacity windows"), satWindowMS, pooled(capUsed))
	rss, err := peakRSSMB("self")
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
	rep.Set("max_rate", median(pooled(capUsed)))
	rep.Set("peak_rss_mb", rss)
	rep.Set("control_ms", q.P50)
	return nil
}

// checkIngest asserts, after the drain: acked == received ==
// summarized; every started job is in the warehouse once with the
// summary the batch pipeline computes for it; and the sharded
// snapshot's queries equal a serial warehouse.Store fed the same
// records.
func checkIngest(sys *ingestSystem, rep *Report) {
	led := sys.srv.Ledger().Snapshot()
	var acked, sent uint64
	for _, c := range sys.clients {
		acked += c.Stats().RecordsAcked
		sent += c.Stats().RecordsSent
	}
	rep.Check(acked == sent, "ingest: %d records sent but %d acked", sent, acked)
	rep.Check(acked == led.Received, "ingest: %d acked but %d received", acked, led.Received)
	rep.Check(led.Received == led.Summarized, "ingest: %d received but %d summarized (dropped %v)", led.Received, led.Summarized, led.Dropped)
	rep.Check(led.Check(0) == nil, "ingest ledger: %v", led.Check(0))

	snap := sys.sink.wh.Snapshot()
	byID := map[string]*warehouse.Record{}
	for _, r := range snap.Records {
		byID[r.JobID] = r
	}
	started, bad := 0, 0
	for _, st := range sys.streams {
		for _, j := range st.jobs {
			if !j.started {
				continue
			}
			started++
			r, ok := byID[j.id]
			if !ok {
				bad++
				continue
			}
			want := *j.tmpl.ref
			want.JobID = j.id
			if !reflect.DeepEqual(*r.Summary, want) {
				bad++
			}
		}
	}
	rep.Check(bad == 0, "ingest: %d of %d streamed jobs missing or summarized differently from the batch pipeline", bad, started)
	rep.Check(snap.Len() == started, "ingest: warehouse holds %d jobs, %d were streamed", snap.Len(), started)
	sys.sink.mu.Lock()
	applied := len(sys.sink.recs)
	sys.sink.mu.Unlock()
	rep.Check(applied == started, "ingest: sink applied %d records for %d jobs", applied, started)

	serial := warehouse.NewStore()
	for _, r := range snap.Records {
		if err := serial.Ingest(r); err != nil {
			rep.Check(false, "serial store: %v", err)
		}
	}
	rep.Check(snapshotDigest(snap.GroupBy, snap.Totals()) == snapshotDigest(serial.GroupBy, serial.Totals()),
		"ingest: sharded warehouse queries differ from a serial store fed the same records")
	rep.Check(reflect.DeepEqual(snap.Rollup, snap.RecomputeRollup()), "ingest: incremental rollup differs from a recompute")
}

var allDims = []warehouse.Dimension{warehouse.ByApplication, warehouse.ByCategory, warehouse.ByUser,
	warehouse.ByPopulation, warehouse.ByJobSize, warehouse.ByMonth}

// snapshotDigest renders every dimension's aggregates and the totals.
func snapshotDigest(groupBy func(warehouse.Dimension) []*warehouse.Aggregate, totals warehouse.Aggregate) string {
	var b strings.Builder
	for _, d := range allDims {
		for _, a := range groupBy(d) {
			fmt.Fprintf(&b, "%s %+v\n", d, *a)
		}
	}
	fmt.Fprintf(&b, "total %+v\n", totals)
	return b.String()
}

// traceIngestStages replays the record path's two compute stages on
// the templates: frame decode (ReadFrame + DecodeChunk) per wire frame
// and summarize per job. It runs the decode replay untraced and then
// with one span per call; the difference is the tracing overhead.
func traceIngestStages(tmpls []*jobTemplate, rep *Report) {
	tr := newTracer(1 << 14)
	var frames [][]byte
	for _, t := range tmpls {
		frames = append(frames, t.encoded...)
	}
	const rounds = 5
	decode := func(traced bool) (time.Duration, error) {
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for i, b := range frames {
				id := -1
				if traced {
					id = tr.begin("stage.frame_decode", -1, i)
				}
				f, err := ingest.ReadFrame(bytes.NewReader(b), ingest.DefaultMaxPayload)
				if err == nil {
					_, err = taccstats.DecodeChunk(f.Payload)
				}
				if traced {
					tr.end(id)
				}
				if err != nil {
					return 0, err
				}
			}
		}
		return time.Since(start), nil
	}
	if _, err := decode(false); err != nil {
		rep.Check(false, "frame decode replay: %v", err)
		return
	}
	untraced, _ := decode(false)
	traced, _ := decode(true)
	rep.Set("stage.frame_decode_us", tr.mean("stage.frame_decode"))
	rep.Set("trace.overhead_pct", (float64(traced)/float64(untraced)-1)*100)

	cfg := taccstats.DefaultConfig()
	for i, t := range tmpls {
		nodes := append([]taccstats.NodeArchive(nil), t.nodes...)
		sort.Slice(nodes, func(a, b int) bool { return nodes[a].Host < nodes[b].Host })
		arch := &taccstats.Archive{JobID: "x", Nodes: nodes}
		id := tr.begin("stage.summarize", -1, i)
		_, err := summarize.Summarize(arch, cfg, summarize.Options{SkipBadNodes: true})
		tr.end(id)
		if err != nil {
			rep.Check(false, "summarize replay: %v", err)
		}
	}
	rep.Set("stage.summarize_us", tr.mean("stage.summarize"))
}
