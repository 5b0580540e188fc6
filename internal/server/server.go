// Package server exposes the warehouse and a trained job classifier over
// HTTP -- the paper's stated destination for this work: "we do plan to
// develop the machine learning technology that was explored in this work
// into production tools for use in XDMoD". The API mirrors the XDMoD
// views: overview totals, dimensional group-bys, drill-downs, monthly
// utilization, and online classification endpoints (single-row and
// batch) that label SUPReMM summaries with a probability threshold. The
// serving model lives behind a core.ModelManager, so operators can
// retrain and hot-swap it without restarting the server.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/resilience"
	"repro/internal/warehouse"
)

// Server wires the API handlers to a warehouse store and an optional
// classifier.
type Server struct {
	store        *warehouse.Store
	models       *core.ModelManager
	discovery    *core.DiscoveryManager
	runtime      *core.ModelManager
	machineNodes int
	mux          *http.ServeMux
	handler      http.Handler

	metrics      *obs.Registry
	log          *obs.Logger
	pprof        bool
	batchWorkers int
	bootStamp    int64
	flight       *flight.Recorder

	resilience ResilienceConfig
	limiter    *resilience.Limiter
	breakerCfg resilience.BreakerConfig
	breaker    *resilience.Breaker
	faults     *resilience.Faults

	lifecyclePending *lifecycleSetup
	lifecycle        *lifecycle.Loop
	lifecycleCh      chan struct{}
}

// New builds a server. model may be nil (the classify endpoints then
// return 503 until a model is swapped in); it seeds the server's model
// manager unless WithModelManager supplies one. machineNodes sizes the
// utilization report. Options add metrics (/metrics), structured
// logging, and pprof endpoints.
func New(store *warehouse.Store, model *core.JobClassifier, machineNodes int, opts ...Option) *Server {
	s := &Server{
		store: store, machineNodes: machineNodes,
		mux:       http.NewServeMux(),
		bootStamp: time.Now().UnixNano(),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.initResilience()
	if s.models == nil {
		s.models = core.NewModelManager(s.metrics)
		if model != nil {
			if _, err := s.models.Swap(model); err != nil {
				s.log.Error("initial model rejected", "err", err)
			}
		}
	}
	if s.discovery == nil {
		s.discovery = core.NewDiscoveryManager(s.metrics)
	}
	if s.runtime == nil {
		s.runtime = core.NewNamedModelManager(s.metrics, "runtime_class")
	}
	s.mux.HandleFunc("GET /api/overview", s.handleOverview)
	s.mux.HandleFunc("GET /api/groupby", s.handleGroupBy)
	s.mux.HandleFunc("GET /api/drilldown", s.handleDrillDown)
	s.mux.HandleFunc("GET /api/utilization", s.handleUtilization)
	s.mux.HandleFunc("GET /api/features", s.handleSchema(s.models, noClassifier))
	s.mux.HandleFunc("POST /api/classify", serveRow(s, classifyEndpoint))
	s.mux.HandleFunc("POST /api/classify/batch", s.handleClassifyBatch)
	s.mux.HandleFunc("GET /api/discover", s.handleDiscoverGet)
	s.mux.HandleFunc("POST /api/discover", s.handleDiscoverRefit)
	s.mux.HandleFunc("POST /api/discover/assign", serveRow(s, assignEndpoint))
	s.mux.HandleFunc("GET /api/runtime-class/features", s.handleSchema(s.runtime, noRuntimeModel))
	s.mux.HandleFunc("POST /api/runtime-class", serveRow(s, runtimeEndpoint))
	s.mux.HandleFunc("POST /admin/model/reload", s.handleModelReload)
	s.initLifecycle()
	// GET /api/lifecycle is the loop's full state snapshot (state machine,
	// drift statistics, shadow ledger, transitions, last promotion
	// decision); retrain forces a challenger retrain (drift need not have fired);
	// promote runs the promotion gate now; rollback swaps the
	// pre-promotion champion back in (one generation of history).
	s.mux.HandleFunc("GET /api/lifecycle", s.lifecycleOp("status", nil))
	s.mux.HandleFunc("POST /admin/lifecycle/retrain", s.lifecycleOp("retrain", (*lifecycle.Loop).Retrain))
	s.mux.HandleFunc("POST /admin/lifecycle/promote", s.lifecycleOp("promote", (*lifecycle.Loop).Decide))
	s.mux.HandleFunc("POST /admin/lifecycle/rollback", s.lifecycleOp("rollback", (*lifecycle.Loop).Rollback))
	s.mountDebug()
	s.handler = s.wrap(s.mux)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// writeJSON encodes v after committing status. Encode failures past that
// point cannot change the response code, so they are logged and counted
// in http_encode_errors_total instead of silently dropped: a truncated
// response body is observable, not invisible.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.metrics.Counter("http_encode_errors_total").Inc()
		s.log.Warn("response encode failed", "status", status, "err", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleOverview(w http.ResponseWriter, r *http.Request) {
	t := s.store.Totals()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"jobs":      t.Jobs,
		"cpuHours":  t.CPUHours,
		"wallHours": t.WallHours,
	})
}

// validDims lists the dimensions the API accepts.
var validDims = map[warehouse.Dimension]bool{
	warehouse.ByApplication: true, warehouse.ByCategory: true,
	warehouse.ByUser: true, warehouse.ByPopulation: true,
	warehouse.ByJobSize: true, warehouse.ByMonth: true,
}

func parseDim(r *http.Request, param string) (warehouse.Dimension, error) {
	d := warehouse.Dimension(r.URL.Query().Get(param))
	if !validDims[d] {
		return "", fmt.Errorf("unknown or missing dimension %q", d)
	}
	return d, nil
}

func (s *Server) handleGroupBy(w http.ResponseWriter, r *http.Request) {
	dim, err := parseDim(r, "dim")
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	type row struct {
		Key        string  `json:"key"`
		Jobs       int     `json:"jobs"`
		MixPercent float64 `json:"mixPercent"`
		CPUHours   float64 `json:"cpuHours"`
		AvgNodes   float64 `json:"avgNodes"`
		AvgWaitHrs float64 `json:"avgWaitHours"`
	}
	// Initialized (not declared nil) so an empty warehouse encodes as [],
	// never null.
	out := []row{}
	for _, g := range s.store.GroupBy(dim) {
		out = append(out, row{g.Key, g.Jobs, g.MixPercent, g.CPUHours, g.AvgNodes, g.AvgWaitHrs})
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDrillDown(w http.ResponseWriter, r *http.Request) {
	outer, err := parseDim(r, "outer")
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	inner, err := parseDim(r, "inner")
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	type innerRow struct {
		Key        string  `json:"key"`
		Jobs       int     `json:"jobs"`
		MixPercent float64 `json:"mixPercent"`
	}
	type group struct {
		Key   string     `json:"key"`
		Jobs  int        `json:"jobs"`
		Inner []innerRow `json:"inner"`
	}
	out := []group{}
	for _, g := range s.store.DrillDown(outer, inner) {
		gg := group{Key: g.Key, Jobs: g.Jobs, Inner: []innerRow{}}
		for _, in := range g.Inner {
			gg.Inner = append(gg.Inner, innerRow{in.Key, in.Jobs, in.MixPercent})
		}
		out = append(out, gg)
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleUtilization(w http.ResponseWriter, r *http.Request) {
	nodes := s.machineNodes
	if q := r.URL.Query().Get("nodes"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			s.writeError(w, http.StatusBadRequest, "bad nodes parameter %q", q)
			return
		}
		nodes = n
	}
	if nodes <= 0 {
		s.writeError(w, http.StatusBadRequest, "machine node count not configured; pass ?nodes=N")
		return
	}
	pts := s.store.Utilization(nodes)
	if pts == nil {
		pts = []warehouse.UtilizationPoint{}
	}
	s.writeJSON(w, http.StatusOK, pts)
}

// noClassifier is the 503 message of every app-classifier endpoint.
const noClassifier = "no classifier loaded"

// handleSchema serves a JobClassifier manager's schema (GET
// /api/features, GET /api/runtime-class/features) so clients and the
// load generator can build valid request bodies.
func (s *Server) handleSchema(m *core.ModelManager, noModel string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v := m.View()
		if v == nil {
			s.writeError(w, http.StatusServiceUnavailable, "%s", noModel)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]any{
			"algorithm":  v.Model.Algo,
			"features":   v.Model.Features,
			"classes":    v.Model.Classes(),
			"generation": v.Generation,
			"compiled":   v.Compiled(),
		})
	}
}

// classifyRequest is the classification endpoint's body: a feature map
// keyed by attribute name. Attributes the model knows but the request
// omits default to 0 and are reported back in the response's "defaulted"
// field; an entirely empty map is rejected.
type classifyRequest struct {
	Features  map[string]float64 `json:"features"`
	Threshold float64            `json:"threshold"`
}

func (q classifyRequest) featureMap() map[string]float64 { return q.Features }

// classifyResult is one row's classification. The single and batch
// endpoints share it, so a batch element is byte-identical to the
// corresponding single-row response.
type classifyResult struct {
	Label       string   `json:"label"`
	Probability float64  `json:"probability"`
	Classified  bool     `json:"classified"`
	Defaulted   []string `json:"defaulted"`
}

// maxClassifyBody caps the classification request body. A legitimate
// request is a small feature map; anything beyond this is hostile or
// misrouted and is rejected before the JSON decoder buffers it.
const maxClassifyBody = 1 << 20

// checkThreshold validates a request's probability threshold.
func checkThreshold(t float64) error {
	if t < 0 || t > 1 {
		return errors.New("threshold must be in [0,1]")
	}
	return nil
}

type classifyCall = rowCall[*core.JobClassifier, classifyRequest]

// classifyEndpoint is POST /api/classify: the app label and its
// probability, thresholded. Every successfully inferred row also feeds
// the lifecycle loop; the served answer is already final by then, so
// drift accounting and shadow scoring cannot perturb it (nil-safe no-op
// when the loop is disabled).
var classifyEndpoint = &rowEndpoint[*core.JobClassifier, classifyRequest, classifyResult]{
	rowKind:  rowKind{"classify_outcomes_total", FaultClassifyRow, "classify_row_seconds"},
	noModel:  noClassifier,
	view:     func(s *Server) *core.ModelView { return s.models.View() },
	validate: func(c *classifyCall) error { return checkThreshold(c.req.Threshold) },
	infer: func(c *classifyCall) (classifyResult, string, error) {
		label, prob, ok := c.view.Model.Classify(c.row, c.req.Threshold)
		res := classifyResult{Label: label, Probability: prob, Classified: ok, Defaulted: c.defaulted}
		if ok {
			return res, "classified", nil
		}
		return res, "below_threshold", nil
	},
	observe: func(s *Server, c *classifyCall, res classifyResult) { s.lifecycle.Observe(c.ctx, c.row, res.Label) },
	respond: func(_ *classifyCall, res classifyResult) any { return res },
}

// classifyRow runs one resolved batch row through the per-row steps of
// the classify endpoint, so a batch element is scored exactly as the
// same row posted alone.
func (s *Server) classifyRow(ctx context.Context, v *core.ModelView, row []float64, defaulted []string, threshold float64) (classifyResult, error) {
	return runRow(s, classifyEndpoint, &classifyCall{
		ctx: ctx, view: v, req: classifyRequest{Threshold: threshold}, row: row, defaulted: defaulted,
	})
}
