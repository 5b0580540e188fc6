package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"

	"repro/internal/core"
	"repro/internal/obs/flight"
)

// This file serves the unknown-app discovery and runtime-class workload
// pack: PCA + k-means over the warehouse's Uncategorized/NA population
// behind GET/POST /api/discover (+ per-job /api/discover/assign
// scoring), and submit-time runtime/outcome class prediction behind
// POST /api/runtime-class. Both artifacts live behind immutable views
// with atomic refit/hot-swap and ride the same admission/deadline/
// breaker governance and flight-recorder middleware as classify.

// WithDiscovery supplies an externally-owned discovery manager (for
// boot-time fitting). Build it with the same registry passed to
// WithMetrics so swap metrics land in one exposition; without this
// option the server builds its own empty manager and /api/discover
// answers 503 until the first refit.
func WithDiscovery(dm *core.DiscoveryManager) Option {
	return func(s *Server) { s.discovery = dm }
}

// WithRuntimeManager supplies an externally-owned manager for the
// runtime-class model. Without it the server builds its own empty
// manager and /api/runtime-class answers 503 until a model is swapped
// in.
func WithRuntimeManager(mm *core.ModelManager) Option {
	return func(s *Server) { s.runtime = mm }
}

// The 503 messages of the discovery and runtime-class endpoints.
const (
	noDiscoveryFit = "no discovery fit loaded"
	noRuntimeModel = "no runtime-class model loaded"
)

// handleDiscoverGet reports the serving discovery fit: the cluster
// table, the explained-variance curve (read the knee to see how many
// directions the unlabeled population spans), and the anomaly
// threshold. Cluster Center keys encode sorted (encoding/json orders map
// keys), so responses are byte-deterministic.
func (s *Server) handleDiscoverGet(w http.ResponseWriter, r *http.Request) {
	v := s.discovery.View()
	if v == nil {
		s.writeError(w, http.StatusServiceUnavailable, "%s", noDiscoveryFit)
		return
	}
	v.Annotate(flight.From(r.Context()))
	m := v.Model
	s.writeJSON(w, http.StatusOK, map[string]any{
		"generation":        v.Generation,
		"k":                 m.K,
		"rows":              m.Rows,
		"seed":              m.Seed,
		"features":          m.Features,
		"explainedVariance": m.ExplainedVariance,
		"anomalyDistance":   m.AnomalyDistance,
		"inertia":           m.Inertia,
		"clusters":          m.Clusters,
	})
}

// refitRequest tunes a discovery refit; zero fields keep the module
// defaults (and Seed 0 is a valid, deterministic seed).
type refitRequest struct {
	K          int    `json:"k"`
	Components int    `json:"components"`
	Restarts   int    `json:"restarts"`
	Seed       uint64 `json:"seed"`
}

// handleDiscoverRefit refits the discovery model over the warehouse's
// current Uncategorized/NA population and atomically hot-swaps it in.
// Refits are control-plane work like model reloads, so they share the
// reload circuit breaker: repeated failures trip it and further
// attempts answer 503 fast without touching the store.
func (s *Server) handleDiscoverRefit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxClassifyBody)
	var req refitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.K < 0 || req.Components < 0 || req.Restarts < 0 {
		s.writeError(w, http.StatusBadRequest, "k, components and restarts must be >= 0")
		return
	}
	gen, err := s.RefitDiscovery(core.DiscoveryConfig{
		K: req.K, Components: req.Components, Restarts: req.Restarts,
		Seed: req.Seed, Workers: s.batchWorkers,
	})
	if err != nil {
		s.log.Warn("discovery refit failed", "err", err)
		s.controlError(w, err, errors.Is(err, core.ErrSchemaMismatch), http.StatusBadRequest,
			"refit breaker open", "refit rejected", "discovery refit failed")
		return
	}
	v := s.discovery.View()
	s.log.Info("discovery refit", "generation", gen, "k", v.Model.K, "rows", v.Model.Rows)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"generation": gen,
		"k":          v.Model.K,
		"rows":       v.Model.Rows,
	})
}

// RefitDiscovery fits PCA + k-means over the warehouse's current
// unlabeled population and swaps the result in, through the shared
// control-plane breaker and the discover.fit fault site. The admin
// endpoint (POST /api/discover) routes here.
func (s *Server) RefitDiscovery(cfg core.DiscoveryConfig) (uint64, error) {
	gen := s.discovery.Generation()
	err := s.controlGuard(func() error {
		if err := s.faults.Inject(FaultDiscoverFit); err != nil {
			return err
		}
		opt := core.DefaultFeatures()
		m, err := core.FitDiscovery(core.UnlabeledRows(s.store, opt), core.FeatureNames(opt), cfg)
		if err != nil {
			return err
		}
		gen, err = s.discovery.Swap(m)
		return err
	})
	return gen, err
}

// assignRequest scores one job against the discovery fit.
type assignRequest struct {
	Features map[string]float64 `json:"features"`
}

func (q assignRequest) featureMap() map[string]float64 { return q.Features }

type assignCall = rowCall[*core.DiscoveryModel, assignRequest]

// assignEndpoint is POST /api/discover/assign: which discovered cluster
// a job row belongs to, how far from the center it sits, and whether
// that distance (or the cluster itself) is anomalous.
var assignEndpoint = &rowEndpoint[*core.DiscoveryModel, assignRequest, *core.Assignment]{
	rowKind: rowKind{"discover_assign_outcomes_total", FaultDiscoverAssign, "discover_assign_seconds"},
	noModel: noDiscoveryFit,
	view:    func(s *Server) *core.DiscoveryView { return s.discovery.View() },
	infer: func(c *assignCall) (*core.Assignment, string, error) {
		a, err := c.view.Model.Assign(c.row)
		if err == nil && a.Anomalous {
			return a, "anomalous", nil
		}
		return a, "assigned", err
	},
	respond: func(c *assignCall, a *core.Assignment) any {
		return map[string]any{
			"cluster":          a.Cluster,
			"distance":         a.Distance,
			"anomalous":        a.Anomalous,
			"clusterAnomalous": a.ClusterAnomalous,
			"projection":       a.Projection,
			"generation":       c.view.Generation,
			"defaulted":        c.defaulted,
		}
	},
}

// runtimeRequest asks for a submit-time runtime/outcome class. The
// global Threshold applies to every class; Thresholds overrides it per
// class (e.g. demand 0.9 confidence before promising "short" but accept
// 0.5 for "failed" warnings).
type runtimeRequest struct {
	Features   map[string]float64 `json:"features"`
	Threshold  float64            `json:"threshold"`
	Thresholds map[string]float64 `json:"thresholds"`
}

func (q runtimeRequest) featureMap() map[string]float64 { return q.Features }

type runtimeCall = rowCall[*core.JobClassifier, runtimeRequest]

// runtimeAnswer is one runtime-class inference: the winning class
// index, the posterior vector, and the thresholded verdict.
type runtimeAnswer struct {
	pred       int
	probs      []float64
	classified bool
}

// runtimeEndpoint is POST /api/runtime-class: a job's runtime/outcome
// class at submit time from whatever features the client has (missing
// ones default to 0 and are reported back). The full per-class
// probability vector is returned so scheduler-side policies can apply
// their own decision rules beyond the thresholded verdict.
var runtimeEndpoint = &rowEndpoint[*core.JobClassifier, runtimeRequest, runtimeAnswer]{
	rowKind: rowKind{"runtime_class_outcomes_total", FaultRuntimeRow, "runtime_class_row_seconds"},
	noModel: noRuntimeModel,
	view:    func(s *Server) *core.ModelView { return s.runtime.View() },
	validate: func(c *runtimeCall) error {
		if err := checkThreshold(c.req.Threshold); err != nil {
			return err
		}
		classes := c.view.Model.Classes()
		for name, t := range c.req.Thresholds {
			if !slices.Contains(classes, name) {
				return fmt.Errorf("unknown class %q in thresholds (classes: %v)", name, classes)
			}
			if t < 0 || t > 1 {
				return fmt.Errorf("thresholds[%q] must be in [0,1]", name)
			}
		}
		return nil
	},
	infer: func(c *runtimeCall) (runtimeAnswer, string, error) {
		pred, probs := c.view.Model.PredictProb(c.row)
		threshold := c.req.Threshold
		if t, ok := c.req.Thresholds[c.view.Model.Classes()[pred]]; ok {
			threshold = t
		}
		a := runtimeAnswer{pred: pred, probs: probs, classified: probs[pred] >= threshold}
		if a.classified {
			return a, "classified", nil
		}
		return a, "below_threshold", nil
	},
	respond: func(c *runtimeCall, a runtimeAnswer) any {
		classes := c.view.Model.Classes()
		probabilities := make(map[string]float64, len(classes))
		for i, class := range classes {
			probabilities[class] = a.probs[i]
		}
		return map[string]any{
			"class":         classes[a.pred],
			"probability":   a.probs[a.pred],
			"classified":    a.classified,
			"probabilities": probabilities,
			"generation":    c.view.Generation,
			"defaulted":     c.defaulted,
		}
	},
}
