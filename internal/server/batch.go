package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"

	"repro/internal/core"
	"repro/internal/obs/flight"
	"repro/internal/parallel"
)

// rowError maps a failed row classification (single or batch) to its
// response: deadline overruns are 504s counted in http_timeouts_total,
// isolated row panics and injected faults are 500s. Nothing has been
// written yet in either caller, so the status always commits cleanly.
// The request's wide event picks up the terminal error (and, for an
// isolated row panic, the panic flag) so /debug/requests can attribute
// the 5xx to its cause.
func (s *Server) rowError(w http.ResponseWriter, r *http.Request, err error) {
	fe := flight.From(r.Context())
	var pe *parallel.PanicError
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.timedOut(w, r, "handler")
	case errors.As(err, &pe):
		fe.MarkPanic()
		fe.SetErr(fmt.Sprintf("row %d inference panicked: %v", pe.Index, pe.Value))
		s.metrics.Counter("classify_row_panics_total").Inc()
		s.log.Error("classify row panic isolated", "task", pe.Index, "panic", pe.Value)
		s.writeError(w, http.StatusInternalServerError,
			"internal error: row %d inference panicked (isolated)", pe.Index)
	default:
		fe.SetErr(err.Error())
		s.writeError(w, http.StatusInternalServerError, "internal error: %v", err)
	}
}

// maxBatchRows caps how many feature rows one batch request may carry.
// Larger workloads should be chunked client-side; the cap keeps a single
// request from monopolizing the worker pool or the response buffer.
const maxBatchRows = 4096

// maxBatchBody caps the batch request body (a full 4096x~40-feature
// request is a few MB of JSON).
const maxBatchBody = 16 << 20

// rowLatencyBuckets spans per-row inference latency, which sits in the
// microsecond-to-millisecond range -- far below the default HTTP
// request buckets.
func rowLatencyBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 0.1,
	}
}

// batchSizeBuckets spans request batch sizes from single rows to the
// maxBatchRows cap.
func batchSizeBuckets() []float64 {
	return []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, float64(maxBatchRows)}
}

// batchRequest is the batch classification body. Exactly one of Rows
// (array-of-maps, one feature map per job) or Columns (column-major, one
// equal-length value array per feature) must be set.
type batchRequest struct {
	Rows      []map[string]float64 `json:"rows"`
	Columns   map[string][]float64 `json:"columns"`
	Threshold float64              `json:"threshold"`
}

// batchSummary aggregates a batch response: row counts by outcome and,
// for classified rows, by predicted label.
type batchSummary struct {
	Rows           int            `json:"rows"`
	Classified     int            `json:"classified"`
	BelowThreshold int            `json:"belowThreshold"`
	ByLabel        map[string]int `json:"byLabel"`
}

// batchResponse is the batch classification reply. Results are in
// request row order and each element is byte-identical to the single
// /api/classify response for that row.
type batchResponse struct {
	Results    []classifyResult `json:"results"`
	Summary    batchSummary     `json:"summary"`
	Generation uint64           `json:"generation"`
}

// batchBadRequest counts and writes a batch-level validation failure.
func (s *Server) batchBadRequest(w http.ResponseWriter, format string, args ...any) {
	s.outcome(classifyEndpoint.rowKind, "bad_request")
	s.writeError(w, http.StatusBadRequest, format, args...)
}

// resolveColumns validates a column-major batch and materializes it into
// per-row feature vectors. All columns must be known features and share
// one length; features without a column default to zero for every row.
func resolveColumns(v *core.ModelView, cols map[string][]float64) (rows [][]float64, defaulted []string, err error) {
	n := -1
	var unknown []string
	for name, col := range cols {
		if _, ok := v.FeatureIndex(name); !ok {
			unknown = append(unknown, name)
			continue
		}
		if n == -1 {
			n = len(col)
		} else if len(col) != n {
			return nil, nil, fmt.Errorf("column %q has %d values, others have %d", name, len(col), n)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, nil, fmt.Errorf("unknown features: %v", unknown)
	}
	if n <= 0 {
		return nil, nil, errors.New("columns form carries no rows")
	}
	rows = make([][]float64, n)
	flat := make([]float64, n*v.NumFeatures())
	for i := range rows {
		rows[i] = flat[i*v.NumFeatures() : (i+1)*v.NumFeatures()]
	}
	for name, col := range cols {
		idx, _ := v.FeatureIndex(name)
		for i, val := range col {
			rows[i][idx] = val
		}
	}
	defaulted = []string{}
	for _, name := range v.Model.Features {
		if _, ok := cols[name]; !ok {
			defaulted = append(defaulted, name)
		}
	}
	return rows, defaulted, nil
}

// handleClassifyBatch classifies up to maxBatchRows feature rows in one
// request, fanning inference across the worker pool. The model view is
// captured once, so every row in a batch is classified by the same model
// generation even if a hot-swap lands mid-request.
func (s *Server) handleClassifyBatch(w http.ResponseWriter, r *http.Request) {
	v := s.models.View()
	var req batchRequest
	if !decodeRow(s, w, r, classifyEndpoint.rowKind, v, noClassifier, maxBatchBody, &req) {
		return
	}
	if err := checkThreshold(req.Threshold); err != nil {
		s.batchBadRequest(w, "%v", err)
		return
	}
	if len(req.Rows) > 0 && len(req.Columns) > 0 {
		s.batchBadRequest(w, "request sets both rows and columns; pick one form")
		return
	}

	// Materialize both forms into per-row vectors plus per-row defaulted
	// lists before inference, so validation errors reject the whole batch
	// up front.
	var rows [][]float64
	var defaulted [][]string
	switch {
	case len(req.Rows) > 0:
		if len(req.Rows) > maxBatchRows {
			s.batchBadRequest(w, "batch carries %d rows, limit is %d", len(req.Rows), maxBatchRows)
			return
		}
		rows = make([][]float64, len(req.Rows))
		defaulted = make([][]string, len(req.Rows))
		for i, features := range req.Rows {
			if len(features) == 0 {
				s.batchBadRequest(w, "row %d: empty or missing features map", i)
				return
			}
			row, def, unknown := resolveRow(v, features)
			if len(unknown) > 0 {
				s.batchBadRequest(w, "row %d: unknown features: %v", i, unknown)
				return
			}
			rows[i], defaulted[i] = row, def
		}
	case len(req.Columns) > 0:
		cols, def, err := resolveColumns(v, req.Columns)
		if err != nil {
			s.batchBadRequest(w, "%v", err)
			return
		}
		if len(cols) > maxBatchRows {
			s.batchBadRequest(w, "batch carries %d rows, limit is %d", len(cols), maxBatchRows)
			return
		}
		rows = cols
		defaulted = make([][]string, len(cols))
		for i := range defaulted {
			defaulted[i] = def
		}
	default:
		s.batchBadRequest(w, "empty batch: set rows or columns")
		return
	}

	s.metrics.Histogram("classify_batch_rows", batchSizeBuckets()).Observe(float64(len(rows)))

	// All-or-nothing fan-out: rows share the request context, so an
	// expired deadline (or an isolated row panic) fails the whole batch
	// with one error response -- a batch never returns partial results.
	// Each row's inference time lands in the request's wide event across
	// however many goroutines the pool spreads over.
	results := make([]classifyResult, len(rows))
	err := parallel.ForEachCtx(r.Context(), s.batchWorkers, len(rows), func(ctx context.Context, i int) error {
		res, err := s.classifyRow(ctx, v, rows[i], defaulted[i], req.Threshold)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		s.rowError(w, r, err)
		return
	}

	sum := batchSummary{Rows: len(results), ByLabel: map[string]int{}}
	for _, res := range results {
		if res.Classified {
			sum.Classified++
			sum.ByLabel[res.Label]++
		} else {
			sum.BelowThreshold++
		}
	}
	s.writeJSON(w, http.StatusOK, batchResponse{
		Results:    results,
		Summary:    sum,
		Generation: v.Generation,
	})
}

// reloadRequest is the admin reload body; path may be empty when the
// manager has a configured default (e.g. the -model flag).
type reloadRequest struct {
	Path string `json:"path"`
}

// handleModelReload atomically swaps the serving model for one loaded
// from disk, through the reload circuit breaker. Schema mismatches are
// rejected with 409 and the old model keeps serving; while the breaker
// is open (too many consecutive reload failures) attempts answer 503
// with a Retry-After hint and never touch the manager; in-flight
// requests are never disturbed either way.
func (s *Server) handleModelReload(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxClassifyBody)
	var req reloadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	gen, err := s.ReloadModel(req.Path)
	if err != nil {
		s.log.Warn("model reload failed", "path", req.Path, "err", err)
		s.controlError(w, err, errors.Is(err, core.ErrSchemaMismatch), http.StatusBadRequest,
			"model reload breaker open", "model rejected", "model reload failed")
		return
	}
	v := s.models.View()
	s.log.Info("model swapped", "generation", gen, "algo", v.Model.Algo, "path", s.models.Path())
	s.writeJSON(w, http.StatusOK, map[string]any{
		"generation": gen,
		"algorithm":  v.Model.Algo,
		"features":   len(v.Model.Features),
	})
}
