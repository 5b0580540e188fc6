package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/resilience"
	"repro/internal/server"
)

// span is one timed call into a module's public function, recorded
// from the benchmark's own code. Spans of one request share Req; Parent
// is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// mean returns the mean duration of the named spans in microseconds
// (0 when there are none).
func (t *tracer) mean(name string) float64 {
	var sum int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceServe builds the serving stack in process exactly as
// supremm-serve does at its defaults, timing each set-up call, then
// replays the reference phase's request bodies through Server.ServeHTTP
// twice (untimed per request, then one span per request; the difference
// is the tracing overhead) and, per workload, the row path stage by
// stage or the lifecycle calls.
func traceServe(spec serveSpec, cfg runConfig, s *serveRun, rep *Report) error {
	tr := newTracer(1 << 16)
	reg := obs.NewRegistry()

	sp := tr.begin("core.RunPipeline", -1, 0)
	pcfg := core.DefaultPipelineConfig(serverSeed, serverJobs)
	pcfg.Obs = core.Instrumentation{Metrics: reg}
	res, err := core.RunPipeline(pcfg)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("core.TrainJobClassifier", -1, 0)
	ds, err := core.BuildDataset(res.Records, core.LabelByCategory, core.DefaultFeatures())
	if err != nil {
		return err
	}
	model, err := core.TrainJobClassifier(ds, core.PaperForest(serverSeed))
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("core.TrainRuntimeClassifier", -1, 0)
	rtModel, err := core.TrainRuntimeClassifier(res.Records, core.PaperForest(serverSeed))
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("core.FitDiscovery", -1, 0)
	dm, err := core.FitDiscovery(core.UnlabeledRows(res.Store, core.DefaultFeatures()),
		core.FeatureNames(core.DefaultFeatures()), core.DiscoveryConfig{Seed: serverSeed})
	tr.end(sp)
	if err != nil {
		return err
	}
	rep.Set("setup.pipeline_s", tr.mean("core.RunPipeline")/1e6)
	rep.Set("setup.train_s", (tr.mean("core.TrainJobClassifier")+tr.mean("core.TrainRuntimeClassifier"))/1e6)
	rep.Set("setup.discovery_s", tr.mean("core.FitDiscovery")/1e6)

	// The in-process model must answer exactly like the served one.
	served := s.want
	if err := s.expectFrom(model); err != nil {
		return err
	}
	same := true
	for k, v := range served {
		same = same && s.want[k] == v
	}
	rep.Check(same, "in-process model answers differ from the served snapshot's")

	models := core.NewModelManager(reg)
	runtimeModels := core.NewNamedModelManager(reg, "runtime_class")
	discovery := core.NewDiscoveryManager(reg)
	for _, err := range []error{swapErr(models.Swap(model)), swapErr(runtimeModels.Swap(rtModel)), swapErr(discovery.Swap(dm))} {
		if err != nil {
			return err
		}
	}
	recorder := flight.NewRecorder(flight.DefaultConfig())
	opts := []server.Option{
		server.WithMetrics(reg), server.WithModelManager(models),
		server.WithRuntimeManager(runtimeModels), server.WithDiscovery(discovery),
		server.WithResilience(server.ResilienceConfig{RequestTimeout: 30 * time.Second, MaxQueue: 64}),
		server.WithReloadBreaker(resilience.BreakerConfig{FailureThreshold: 5, OpenFor: 30 * time.Second}),
		server.WithFlightRecorder(recorder),
	}
	var challenger *core.JobClassifier
	if spec.Lifecycle {
		lcCfg, err := lifecycle.ParseSpec("auto=false")
		if err != nil {
			return err
		}
		lcCfg.Seed = serverSeed
		base, err := lifecycle.BaselineFor(ds, model, lcCfg.Bins)
		if err != nil {
			return err
		}
		trainer := func() (lifecycle.TrainResult, error) {
			id := tr.begin("lifecycle.Trainer", -1, 0)
			defer tr.end(id)
			labels := make([]string, ds.Len())
			for i := range labels {
				labels[i] = ds.Label(i)
			}
			n, w := ds.Len(), lcCfg.TrainWindow
			if w > n {
				w = n
			}
			out, err := lifecycle.TrainChallenger(ds.FeatureNames, ds.X[n-w:], labels[n-w:], lcCfg)
			challenger = out.Model
			return out, err
		}
		opts = append(opts, server.WithLifecycle(lcCfg, lifecycle.Options{Trainer: trainer, Baseline: base}))
	}
	api := server.New(res.Store, nil, pcfg.Machine.TotalNodes(), opts...)
	if spec.Lifecycle {
		if err := api.Lifecycle().Retrain(); err != nil {
			return fmt.Errorf("in-process retrain: %w", err)
		}
		rep.Set("lifecycle.train_s", tr.mean("lifecycle.Trainer")/1e6)
	}

	n := int(spec.RefRate * float64(cfg.Seconds))
	p := makePlan(spec, s.rs, s.seed, "reference", n)
	// replay serves the plan's bodies in process and returns the time
	// and the heap allocations of the ServeHTTP calls alone.
	replay := func(traced bool) (total time.Duration, mallocs, allocBytes uint64, err error) {
		reqs := make([]*http.Request, n)
		recs := make([]*httptest.ResponseRecorder, n)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodPost, kindPath[p.Kind[i]], bytes.NewReader(s.rs.Bodies[p.Kind[i]][p.Body[i]]))
			recs[i] = httptest.NewRecorder()
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := range reqs {
			if traced {
				id := tr.begin("server.ServeHTTP."+kindName[p.Kind[i]], -1, i)
				api.ServeHTTP(recs[i], reqs[i])
				tr.end(id)
			} else {
				api.ServeHTTP(recs[i], reqs[i])
			}
		}
		total = time.Since(start)
		runtime.ReadMemStats(&m1)
		for i, rec := range recs {
			if rec.Code != http.StatusOK {
				return 0, 0, 0, fmt.Errorf("in-process %s: status %d: %s", kindPath[p.Kind[i]], rec.Code, rec.Body.Bytes())
			}
			if err := s.verify(int(p.Kind[i]), p.Body[i], rec.Body.Bytes()); err != nil {
				return 0, 0, 0, fmt.Errorf("in-process %s answer: %w", kindPath[p.Kind[i]], err)
			}
		}
		return total, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, nil
	}
	if _, _, _, err := replay(false); err != nil { // warm caches and pools
		return err
	}
	untraced, mallocs, allocBytes, err := replay(false)
	if err != nil {
		return err
	}
	traced, _, _, err := replay(true)
	if err != nil {
		return err
	}
	rep.Set("trace.overhead_pct", (float64(traced)/float64(untraced)-1)*100)
	rep.Set("server.allocs_per_req", float64(mallocs)/float64(n))
	rep.Set("server.bytes_per_req", float64(allocBytes)/float64(n))
	handlerKind := "classify"
	if spec.Lifecycle {
		handlerKind = "batch"
	}
	handler := tr.mean("server.ServeHTTP." + handlerKind)
	rep.Set("server.handler_us", handler)
	rep.Note("in-process replay of %d requests: untraced %.1f us/req, traced %.1f us/req",
		n, us(untraced)/float64(n), us(traced)/float64(n))

	if spec.Lifecycle {
		loop := api.Lifecycle()
		ctx := context.Background()
		for i := 0; i < n; i++ {
			for _, row := range s.rs.Batches[p.Body[i]] {
				x := rowVector(model.Features, s.rs.Rows[row])
				id := tr.begin("core.JobClassifier.Classify", -1, i)
				label, _, _ := model.Classify(x, threshold)
				tr.end(id)
				id = tr.begin("lifecycle.Loop.Observe", -1, i)
				loop.Observe(ctx, x, label)
				tr.end(id)
				id = tr.begin("lifecycle.challenger.Classify", -1, i)
				challenger.Classify(x, threshold)
				tr.end(id)
			}
		}
		st := loop.Status()
		checkLedger(rep, st, st.Generation)
		rep.Set("stage.infer_us", tr.mean("core.JobClassifier.Classify"))
		rep.Set("lifecycle.observe_us", tr.mean("lifecycle.Loop.Observe"))
		rep.Set("lifecycle.shadow_us", tr.mean("lifecycle.challenger.Classify"))
	} else {
		if err := replayStages(tr, p, s, models, reg, recorder); err != nil {
			return err
		}
		stages := 0.0
		for _, st := range []string{"decode", "resolve", "infer", "encode", "record"} {
			m := tr.mean("stage." + st)
			stages += m
			rep.Set("stage."+st+"_us", m)
		}
		rep.Set("stage.residual_us", handler-stages)
		for k := 0; k < 5; k++ {
			id := tr.begin("core.ModelManager.ReloadFromFile", -1, k)
			_, err := models.ReloadFromFile(s.snapshot)
			tr.end(id)
			if err != nil {
				return err
			}
		}
		rep.Set("core.swap_ms", tr.mean("core.ModelManager.ReloadFromFile")/1e3)
	}
	return tr.write(filepath.Join(cfg.Work, "spans-"+spec.Name+".jsonl"))
}

func swapErr(_ uint64, err error) error { return err }

// rowVector lays a feature map out in model feature order.
func rowVector(features []string, m map[string]float64) []float64 {
	x := make([]float64, len(features))
	for j, name := range features {
		x[j] = m[name]
	}
	return x
}

// replayStages re-runs the single-row classify path on the reference
// bodies one stage at a time, with the server's own vocabulary: decode
// the JSON body, resolve names onto the model's feature vector, infer,
// encode the answer, and record the request's metrics and wide event.
// The server's handler minus the sum of these is the residual (routing,
// middleware, admission and response writing).
func replayStages(tr *tracer, p plan, s *serveRun, models *core.ModelManager, reg *obs.Registry, recorder *flight.Recorder) error {
	type request struct {
		Features  map[string]float64 `json:"features"`
		Threshold float64            `json:"threshold"`
	}
	type answer struct {
		Label       string   `json:"label"`
		Probability float64  `json:"probability"`
		Classified  bool     `json:"classified"`
		Defaulted   []string `json:"defaulted"`
	}
	for i := range p.Kind {
		if p.Kind[i] != kindClassify {
			continue
		}
		body := s.rs.Bodies[kindClassify][p.Body[i]]
		start := time.Now()
		root := tr.begin("replay.classify", -1, i)

		id := tr.begin("stage.decode", root, i)
		var req request
		err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		tr.end(id)
		if err != nil {
			return err
		}

		id = tr.begin("stage.resolve", root, i)
		v := models.View()
		row := make([]float64, v.NumFeatures())
		defaulted := []string{}
		for name, val := range req.Features {
			if j, ok := v.FeatureIndex(name); ok {
				row[j] = val
			}
		}
		for _, name := range v.Model.Features {
			if _, ok := req.Features[name]; !ok {
				defaulted = append(defaulted, name)
			}
		}
		tr.end(id)

		id = tr.begin("stage.infer", root, i)
		label, prob, ok := v.Model.Classify(row, req.Threshold)
		tr.end(id)

		id = tr.begin("stage.encode", root, i)
		var buf bytes.Buffer
		err = json.NewEncoder(&buf).Encode(answer{Label: label, Probability: prob, Classified: ok, Defaulted: defaulted})
		tr.end(id)
		if err != nil {
			return err
		}
		if err := s.verifyClassify(p.Body[i], buf.Bytes()); err != nil {
			return fmt.Errorf("stage replay: %w", err)
		}

		id = tr.begin("stage.record", root, i)
		fe := flight.NewActive(strconv.Itoa(i), http.MethodPost, "/api/classify", start)
		v.Annotate(fe)
		reg.Histogram("classify_row_seconds", nil).ObserveDuration(start)
		reg.Counter("classify_outcomes_total", "outcome", "classified").Inc()
		reg.Counter("http_requests_total", "path", "/api/classify", "code", "200").Inc()
		reg.Histogram("http_request_seconds", nil, "path", "/api/classify").ObserveDuration(start)
		fe.Finalize(http.StatusOK, time.Since(start))
		recorder.Record(fe)
		tr.end(id)

		tr.end(root)
	}
	return nil
}
