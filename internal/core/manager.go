package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// ErrSchemaMismatch reports a model swap rejected because the incoming
// model's feature schema is incompatible with the one currently serving.
// Callers (e.g. the admin reload endpoint) can map it to a conflict
// status while other load failures stay bad-request errors.
var ErrSchemaMismatch = errors.New("core: model feature schema mismatch")

// Servable is a model a Manager can publish: it names the feature
// vector it scores, in vector order, and identifies itself on wide
// events. Served models are pointers, so a nil model is detectable.
type Servable interface {
	comparable
	FeatureNames() []string
	Identity() (algo string, compiled bool)
}

// View is one immutable generation of a served model: the model, its
// generation number, and a precomputed feature name -> index map so
// request feature resolution is O(1) per attribute instead of a linear
// scan over the feature names. Views are never mutated after
// publication, so a request that captures a view once observes a single
// self-consistent model no matter how many swaps land mid-flight.
type View[M Servable] struct {
	Model      M
	Generation uint64

	index map[string]int
}

// ModelView is a served JobClassifier generation (the app classifier
// and the runtime-class model).
type ModelView = View[*JobClassifier]

// DiscoveryView is a served discovery fit generation.
type DiscoveryView = View[*DiscoveryModel]

// FeatureIndex resolves a feature name to its position in the model's
// feature vector.
func (v *View[M]) FeatureIndex(name string) (int, bool) {
	i, ok := v.index[name]
	return i, ok
}

// NumFeatures returns the model's feature vector width.
func (v *View[M]) NumFeatures() int { return len(v.index) }

// Compiled reports whether the published model serves through the
// compiled zero-allocation engine (see internal/ml/compile). A
// ModelManager compiles at install time, so for the three paper model
// families this is always true; a model that failed to lower serves
// interpreted.
func (v *View[M]) Compiled() bool {
	_, compiled := v.Model.Identity()
	return compiled
}

// Annotate stamps the serving model's identity (generation, compiled
// flag, algorithm) onto an in-flight wide event, so a recorded request
// is attributable to the exact model that answered it even across
// hot-swaps. Nil-safe on both sides; every handler shares it so the
// annotation cannot drift between them.
func (v *View[M]) Annotate(a *flight.Active) {
	if v == nil {
		return
	}
	algo, compiled := v.Model.Identity()
	a.SetModel(v.Generation, compiled, algo)
}

// Manager publishes a model to concurrent readers behind an atomic
// pointer and swaps it without blocking them: readers load the current
// View with one atomic load, writers validate and install a fully-built
// replacement view. Build one with NewModelManager,
// NewNamedModelManager or NewDiscoveryManager.
type Manager[M Servable] struct {
	cur atomic.Pointer[View[M]]

	mu  sync.Mutex // serializes swaps
	gen uint64     // generation of the last installed view (under mu)
	// install, when set, finishes an accepted model under mu before its
	// view is published.
	install func(M)

	generation *obs.Gauge
	swapOK     *obs.Counter
	swapRej    *obs.Counter
	swapErr    *obs.Counter
}

// DiscoveryManager publishes the serving discovery fit.
type DiscoveryManager = Manager[*DiscoveryModel]

// init wires the manager's <prefix>_generation gauge and
// <prefix>_swap_total{outcome} counters. reg may be nil.
func (m *Manager[M]) init(reg *obs.Registry, prefix, generationHelp, swapHelp string) {
	reg.Help(prefix+"_generation", generationHelp)
	reg.Help(prefix+"_swap_total", swapHelp)
	m.generation = reg.Gauge(prefix + "_generation")
	m.swapOK = reg.Counter(prefix+"_swap_total", "outcome", "ok")
	m.swapRej = reg.Counter(prefix+"_swap_total", "outcome", "rejected")
	m.swapErr = reg.Counter(prefix+"_swap_total", "outcome", "error")
}

// NewDiscoveryManager returns an empty manager (View returns nil until
// the first Swap). reg may be nil; when set, the manager exports
// discover_generation and discover_swap_total{outcome}.
func NewDiscoveryManager(reg *obs.Registry) *DiscoveryManager {
	m := &DiscoveryManager{}
	m.init(reg, "discover",
		"Generation number of the serving discovery fit (0 = none loaded).",
		"Discovery refit hot-swap attempts by outcome.")
	return m
}

// View returns the current view, or nil when no model is loaded. The
// returned view is immutable; hold it for the duration of a request to
// see one consistent generation.
func (m *Manager[M]) View() *View[M] {
	if m == nil {
		return nil
	}
	return m.cur.Load()
}

// Generation returns the generation of the serving model (0 before the
// first successful swap).
func (m *Manager[M]) Generation() uint64 {
	v := m.View()
	if v == nil {
		return 0
	}
	return v.Generation
}

// buildIndex precomputes the feature name -> index map, rejecting
// duplicate names (which would make name-keyed requests ambiguous).
func buildIndex(features []string) (map[string]int, error) {
	idx := make(map[string]int, len(features))
	for i, f := range features {
		if f == "" {
			return nil, fmt.Errorf("core: model has an empty feature name at index %d", i)
		}
		if j, dup := idx[f]; dup {
			return nil, fmt.Errorf("core: model declares feature %q twice (indexes %d and %d)", f, j, i)
		}
		idx[f] = i
	}
	return idx, nil
}

// validateSwap checks an incoming model intrinsically and, when a model
// is already serving, structurally against it: the feature name sets
// must match (order may differ -- clients address features by name, and
// the prebuilt index absorbs any reordering). It returns next's index.
func validateSwap[M Servable](next M, cur *View[M]) (map[string]int, error) {
	var none M
	if next == none {
		return nil, errors.New("core: cannot swap in a nil model")
	}
	features := next.FeatureNames()
	if len(features) == 0 {
		return nil, errors.New("core: cannot swap in a model with no features")
	}
	idx, err := buildIndex(features)
	if err != nil {
		return nil, err
	}
	if cur == nil {
		return idx, nil
	}
	serving := cur.Model.FeatureNames()
	if len(serving) != len(features) {
		return nil, fmt.Errorf("%w: serving %d features, incoming %d",
			ErrSchemaMismatch, len(serving), len(features))
	}
	var missing []string
	for _, f := range serving {
		if _, ok := idx[f]; !ok {
			missing = append(missing, f)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("%w: incoming model lacks %v", ErrSchemaMismatch, missing)
	}
	return idx, nil
}

// Swap validates next and atomically installs it as the serving model,
// returning the new generation. On any error the previous model keeps
// serving untouched and Swap returns its generation. In-flight requests
// holding the old view finish on it; new requests observe the new view.
func (m *Manager[M]) Swap(next M) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	idx, err := validateSwap(next, m.cur.Load())
	if err != nil {
		if errors.Is(err, ErrSchemaMismatch) {
			m.swapRej.Inc()
		} else {
			m.swapErr.Inc()
		}
		return m.gen, err
	}
	if m.install != nil {
		m.install(next)
	}
	m.gen++
	m.cur.Store(&View[M]{Model: next, Generation: m.gen, index: idx})
	m.generation.Set(float64(m.gen))
	m.swapOK.Inc()
	return m.gen, nil
}

// ModelManager publishes a JobClassifier. On top of Manager it compiles
// each model at install time and reloads saved classifiers from disk.
// The zero manager is not ready; use NewModelManager.
type ModelManager struct {
	Manager[*JobClassifier]

	path string // default file for ReloadFromFile("") (under mu)
}

// NewModelManager returns an empty manager (View returns nil until the
// first Swap). reg may be nil; when set, the manager exports
// model_generation and model_swap_total{outcome} metrics.
func NewModelManager(reg *obs.Registry) *ModelManager {
	return NewNamedModelManager(reg, "model")
}

// NewNamedModelManager is NewModelManager with a metric-family prefix,
// so a second manager in the same process (e.g. the runtime-class
// model) exports its own <prefix>_generation / <prefix>_swap_total
// series instead of colliding with the primary classifier's.
func NewNamedModelManager(reg *obs.Registry, prefix string) *ModelManager {
	m := &ModelManager{}
	m.init(reg, prefix,
		"Generation number of the serving "+prefix+" classifier (0 = none loaded).",
		"Hot-swap attempts for the "+prefix+" classifier by outcome.")
	// Compile once at install time, before the view is published, so no
	// request ever pays the lowering cost and every reader of the view
	// sees the same serving form. Models that cannot compile (exotic
	// types, malformed snapshots) serve interpreted — bit-identical,
	// just slower.
	m.install = func(c *JobClassifier) { _ = c.EnsureCompiled() }
	return m
}

// SwapFromReader loads a serialized classifier (as written by Save) and
// swaps it in.
func (m *ModelManager) SwapFromReader(r io.Reader) (uint64, error) {
	next, err := LoadJobClassifier(r)
	if err != nil {
		m.swapErr.Inc()
		return m.Generation(), err
	}
	return m.Swap(next)
}

// SetPath sets the default model file for ReloadFromFile("").
func (m *ModelManager) SetPath(path string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.path = path
}

// Path returns the default model file, if any.
func (m *ModelManager) Path() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.path
}

// ReloadFromFile loads a saved classifier from path (or, when path is
// empty, from the configured default) and swaps it in. On success the
// path becomes the new default, so a later SIGHUP or bare reload repeats
// it.
func (m *ModelManager) ReloadFromFile(path string) (uint64, error) {
	if path == "" {
		path = m.Path()
	}
	if path == "" {
		return m.Generation(), errors.New("core: no model path configured for reload")
	}
	f, err := os.Open(path)
	if err != nil {
		m.swapErr.Inc()
		return m.Generation(), err
	}
	defer f.Close()
	gen, err := m.SwapFromReader(f)
	if err != nil {
		return gen, err
	}
	m.SetPath(path)
	return gen, nil
}
