package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs/flight"
)

// rowKind names one endpoint's per-row instrumentation.
type rowKind struct {
	outcomes string // outcome counter family
	site     string // fault-injection site
	latency  string // per-row inference latency histogram
}

// outcome counts one request (or, for batch, one row) disposition.
func (s *Server) outcome(k rowKind, outcome string) {
	s.metrics.Counter(k.outcomes, "outcome", outcome).Inc()
}

// rowRequest is a decoded single-row request body; every endpoint's
// body carries a name-keyed feature map.
type rowRequest interface {
	featureMap() map[string]float64
}

// rowCall is one single-row request as it moves through the pipeline.
type rowCall[M core.Servable, Q rowRequest] struct {
	ctx       context.Context
	view      *core.View[M]
	req       Q
	row       []float64
	defaulted []string
}

// rowEndpoint is one single-row endpoint: its instrumentation plus the
// steps it supplies to the shared pipeline. A is its inference answer.
type rowEndpoint[M core.Servable, Q rowRequest, A any] struct {
	rowKind
	noModel string
	view    func(*Server) *core.View[M]
	// validate checks the endpoint's own request fields; an error is
	// the 400 message. Nil when there is nothing to check.
	validate func(*rowCall[M, Q]) error
	// infer scores the resolved row and names the outcome to count (a
	// failed inference always counts as error). It is the timed
	// section, so it does no response building.
	infer func(*rowCall[M, Q]) (A, string, error)
	// observe, when set, sees each successful answer after its outcome
	// is counted, outside the timed section.
	observe func(*Server, *rowCall[M, Q], A)
	// respond renders the 200 body.
	respond func(*rowCall[M, Q], A) any
}

// decodeRow is the request prefix every model endpoint shares, batch
// included: capture the view, annotate the wide event, cap the body at
// limit bytes and decode it into req. On failure it answers the request,
// counts the outcome under k and returns false.
func decodeRow[M core.Servable](s *Server, w http.ResponseWriter, r *http.Request, k rowKind, v *core.View[M], noModel string, limit int64, req any) bool {
	if v == nil {
		s.outcome(k, "no_model")
		s.writeError(w, http.StatusServiceUnavailable, "%s", noModel)
		return false
	}
	v.Annotate(flight.From(r.Context()))
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.outcome(k, "oversized")
			s.writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		s.outcome(k, "bad_request")
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// resolveRow maps a name-keyed feature map onto the model's feature
// vector using the view's prebuilt index: O(F + len(features)) total.
// defaulted lists model features absent from the request (in model
// feature order); unknown lists, sorted, request keys the model does
// not recognize.
func resolveRow[M core.Servable](v *core.View[M], features map[string]float64) (row []float64, defaulted, unknown []string) {
	row = make([]float64, v.NumFeatures())
	defaulted = []string{}
	for name, val := range features {
		idx, ok := v.FeatureIndex(name)
		if !ok {
			unknown = append(unknown, name)
			continue
		}
		row[idx] = val
	}
	for _, name := range v.Model.FeatureNames() {
		if _, ok := features[name]; !ok {
			defaulted = append(defaulted, name)
		}
	}
	sort.Strings(unknown)
	return row, defaulted, unknown
}

// serveRow builds the handler of one single-row model endpoint
// (/api/classify, /api/runtime-class, /api/discover/assign). All three
// share this contract, in this order: capture the view (none: 503),
// decode the capped body (413, 400), the endpoint's validation (400),
// the empty-features check and name resolution (400), then runRow's
// fault site (500), deadline (504), timed inference and outcome
// counter, and finally the endpoint's 200 body.
func serveRow[M core.Servable, Q rowRequest, A any](s *Server, ep *rowEndpoint[M, Q, A]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c := &rowCall[M, Q]{ctx: r.Context(), view: ep.view(s)}
		if !decodeRow(s, w, r, ep.rowKind, c.view, ep.noModel, maxClassifyBody, &c.req) {
			return
		}
		if ep.validate != nil {
			if err := ep.validate(c); err != nil {
				s.outcome(ep.rowKind, "bad_request")
				s.writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
		}
		features := c.req.featureMap()
		if len(features) == 0 {
			// An empty map would silently score an all-zero row; reject
			// it so schema drift on the client shows up as an error, not
			// as a confident nonsense answer.
			s.outcome(ep.rowKind, "bad_request")
			s.writeError(w, http.StatusBadRequest, "empty or missing features map")
			return
		}
		var unknown []string
		if c.row, c.defaulted, unknown = resolveRow(c.view, features); len(unknown) > 0 {
			s.outcome(ep.rowKind, "bad_request")
			s.writeError(w, http.StatusBadRequest, "unknown features: %v", unknown)
			return
		}
		answer, err := runRow(s, ep, c)
		if err != nil {
			s.rowError(w, r, err)
			return
		}
		s.writeJSON(w, http.StatusOK, ep.respond(c, answer))
	}
}

// runRow is the per-row core, single and batch alike: the fault site
// (an injected error fails the row, an injected panic propagates to the
// isolation layers, a latency fault delays it), then the deadline (an
// expired context aborts the row before inference; callers map it to
// 504), then inference timed into the endpoint's histogram and the wide
// event's row timer, then the outcome counter and observe.
func runRow[M core.Servable, Q rowRequest, A any](s *Server, ep *rowEndpoint[M, Q, A], c *rowCall[M, Q]) (A, error) {
	var none A
	fe := flight.From(c.ctx)
	if fired, err := s.faults.InjectReport(ep.site); fired {
		// Injected latency and errors alike are fault hits the wide
		// event attributes; a fired latency fault falls through to real
		// inference with err == nil.
		fe.MarkFault()
		if err != nil {
			s.outcome(ep.rowKind, "error")
			return none, err
		}
	}
	if err := c.ctx.Err(); err != nil {
		s.outcome(ep.rowKind, "timeout")
		return none, err
	}
	start := time.Now()
	answer, outcome, err := ep.infer(c)
	took := time.Since(start)
	s.metrics.Histogram(ep.latency, rowLatencyBuckets()).Observe(took.Seconds())
	fe.Timer().Observe(took)
	if err != nil {
		s.outcome(ep.rowKind, "error")
		return none, err
	}
	s.outcome(ep.rowKind, outcome)
	if ep.observe != nil {
		ep.observe(s, c, answer)
	}
	return answer, nil
}
