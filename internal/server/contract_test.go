package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ml/forest"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/warehouse"
)

// contractAssets holds one model of each served kind, built once over a
// small seeded pipeline run and shared read-only by every contract case.
type contractAssets struct {
	store     *warehouse.Store
	classify  *core.JobClassifier
	runtime   *core.JobClassifier
	discovery *core.DiscoveryModel
}

var (
	contractOnce sync.Once
	contract     *contractAssets
	contractErr  error
)

func contractFixture(t *testing.T) *contractAssets {
	t.Helper()
	contractOnce.Do(func() {
		res, err := core.RunPipeline(core.DefaultPipelineConfig(91, 200))
		if err != nil {
			contractErr = err
			return
		}
		cfg := core.ClassifierConfig{Algo: core.AlgoForest, Forest: forest.Config{Trees: 20, Seed: 3}}
		ds, err := core.BuildDataset(res.Records, core.LabelByCategory, core.DefaultFeatures())
		if err != nil {
			contractErr = err
			return
		}
		a := &contractAssets{store: res.Store}
		if a.classify, err = core.TrainJobClassifier(ds, cfg); err != nil {
			contractErr = err
			return
		}
		if a.runtime, err = core.TrainRuntimeClassifier(res.Records, cfg); err != nil {
			contractErr = err
			return
		}
		opt := core.DefaultFeatures()
		a.discovery, err = core.FitDiscovery(core.UnlabeledRows(res.Store, opt), core.FeatureNames(opt),
			core.DiscoveryConfig{K: 3, Restarts: 2, Seed: 9, Workers: 1})
		if err != nil {
			contractErr = err
			return
		}
		contract = a
	})
	if contractErr != nil {
		t.Fatalf("building contract assets: %v", contractErr)
	}
	return contract
}

// contractServer selects the server a contract case runs against.
type contractServer int

const (
	serverEmpty   contractServer = iota // no model loaded anywhere
	serverHealthy                       // all three models loaded
	serverFault                         // healthy, every row fault site fails
	serverSlow                          // healthy, row fault sites outlast a short deadline
)

// newServer builds a fresh server (and registry) of the given kind, so
// each case starts from zeroed counters and per-site fault call counts.
func (a *contractAssets) newServer(t *testing.T, kind contractServer) (http.Handler, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	opts := []Option{WithMetrics(reg)}
	if kind != serverEmpty {
		models := core.NewModelManager(reg)
		runtime := core.NewNamedModelManager(reg, "runtime_class")
		discovery := core.NewDiscoveryManager(reg)
		for _, err := range []error{
			swapErr(models.Swap(a.classify)),
			swapErr(runtime.Swap(a.runtime)),
			swapErr(discovery.Swap(a.discovery)),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		opts = append(opts, WithModelManager(models), WithRuntimeManager(runtime), WithDiscovery(discovery))
	}
	sites := []string{FaultClassifyRow, FaultRuntimeRow, FaultDiscoverAssign}
	switch kind {
	case serverFault:
		opts = append(opts, WithFaults(armAll(t, sites, resilience.FaultSpec{Kind: resilience.FaultError, Rate: 1})))
	case serverSlow:
		opts = append(opts,
			WithFaults(armAll(t, sites, resilience.FaultSpec{Kind: resilience.FaultLatency, Rate: 1, Latency: 60 * time.Millisecond})),
			WithResilience(ResilienceConfig{RequestTimeout: 15 * time.Millisecond}))
	}
	return New(a.store, nil, 6400, opts...), reg
}

func armAll(t *testing.T, sites []string, spec resilience.FaultSpec) *resilience.Faults {
	t.Helper()
	f := resilience.NewFaults(1)
	for _, site := range sites {
		if err := f.Set(site, spec); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func swapErr(_ uint64, err error) error { return err }

// rowOutcomes lists every outcome label the three row endpoints count.
var rowOutcomes = []string{
	"classified", "below_threshold", "assigned", "anomalous",
	"bad_request", "oversized", "no_model", "timeout", "error",
}

// contractBody renders a request body carrying every named feature with
// deterministic values, plus any extra top-level fields.
func contractBody(t *testing.T, names []string, extra map[string]any) string {
	t.Helper()
	features := make(map[string]float64, len(names))
	for j, name := range names {
		features[name] = float64((j*3)%7) / 4
	}
	req := map[string]any{"features": features}
	for k, v := range extra {
		req[k] = v
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRowEndpointContract runs classify, runtime-class and
// discover/assign through one matrix of request dispositions and pins,
// for each, the exact status, the exact response bytes and the one
// outcome counter the request must move. The three endpoints share a
// single request contract; this table is what holds them to it.
func TestRowEndpointContract(t *testing.T) {
	a := contractFixture(t)
	oversized := `{"features":{"` + strings.Repeat("x", maxClassifyBody) + `":1}}`

	type endpoint struct {
		path     string
		outcomes string // outcome counter family
		site     string // row fault site
		noModel  string // 503 message
		features []string
	}
	classify := endpoint{"/api/classify", "classify_outcomes_total", FaultClassifyRow,
		"no classifier loaded", a.classify.Features}
	runtime := endpoint{"/api/runtime-class", "runtime_class_outcomes_total", FaultRuntimeRow,
		"no runtime-class model loaded", a.runtime.Features}
	assign := endpoint{"/api/discover/assign", "discover_assign_outcomes_total", FaultDiscoverAssign,
		"no discovery fit loaded", a.discovery.Features}

	type tcase struct {
		name    string
		ep      endpoint
		server  contractServer
		body    string
		status  int
		want    string // exact response body, without the encoder's trailing newline
		outcome string
	}
	var cases []tcase
	for _, ep := range []endpoint{classify, runtime, assign} {
		full := contractBody(t, ep.features, nil)
		cases = append(cases,
			tcase{"no_model", ep, serverEmpty, full, 503,
				`{"error":"` + ep.noModel + `"}`, "no_model"},
			tcase{"malformed_json", ep, serverHealthy, `garbage`, 400,
				`{"error":"bad request body: invalid character 'g' looking for beginning of value"}`, "bad_request"},
			tcase{"oversized", ep, serverHealthy, oversized, 413,
				`{"error":"request body exceeds 1048576 bytes"}`, "oversized"},
			tcase{"empty_features", ep, serverHealthy, `{"features":{}}`, 400,
				`{"error":"empty or missing features map"}`, "bad_request"},
			tcase{"unknown_features", ep, serverHealthy, `{"features":{"ZZZ":1,"AAA":2}}`, 400,
				`{"error":"unknown features: [AAA ZZZ]"}`, "bad_request"},
			tcase{"injected_fault", ep, serverFault, full, 500,
				`{"error":"internal error: resilience: injected fault at site \"` + ep.site + `\" (call 0)"}`, "error"},
			tcase{"expired_deadline", ep, serverSlow, full, 504,
				`{"error":"request deadline exceeded (handler stage)"}`, "timeout"},
		)
	}
	classes := strings.Join(a.runtime.Classes(), " ")
	for _, ep := range []endpoint{classify, runtime} {
		cases = append(cases,
			tcase{"bad_threshold", ep, serverHealthy, `{"features":{"ZZZ":1},"threshold":1.5}`, 400,
				`{"error":"threshold must be in [0,1]"}`, "bad_request"})
	}
	cases = append(cases,
		tcase{"unknown_class_threshold", runtime, serverHealthy, `{"features":{"ZZZ":1},"thresholds":{"nope":0.5}}`, 400,
			`{"error":"unknown class \"nope\" in thresholds (classes: [` + classes + `])"}`, "bad_request"},
		tcase{"bad_class_threshold", runtime, serverHealthy,
			`{"features":{"ZZZ":1},"thresholds":{"` + a.runtime.Classes()[0] + `":-1}}`, 400,
			`{"error":"thresholds[\"` + a.runtime.Classes()[0] + `\"] must be in [0,1]"}`, "bad_request"},
		tcase{"success", classify, serverHealthy, contractBody(t, classify.features, map[string]any{"threshold": 0.2}), 200,
			`{"label":"MD","probability":0.75,"classified":true,"defaulted":[]}`, "classified"},
		tcase{"success", runtime, serverHealthy, contractBody(t, runtime.features, map[string]any{"threshold": 0.2}), 200,
			`{"class":"failed","classified":true,"defaulted":[],"generation":1,"probabilities":{"failed":0.3,"long":0.25,"medium":0.25,"short":0.2},"probability":0.3}`, "classified"},
		tcase{"success", assign, serverHealthy, contractBody(t, assign.features, nil), 200,
			`{"anomalous":true,"cluster":0,"clusterAnomalous":false,"defaulted":[],"distance":24.98217279070347,"generation":1,` +
				`"projection":[26.929374819243773,-4.889835351445949,-3.218741202336146,-4.456580989057083,1.131647624260315]}`, "anomalous"},
	)

	for _, tc := range cases {
		t.Run(strings.TrimPrefix(tc.ep.path, "/api/")+"/"+tc.name, func(t *testing.T) {
			h, reg := a.newServer(t, tc.server)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.ep.path, strings.NewReader(tc.body)))
			if rec.Code != tc.status {
				t.Errorf("status %d, want %d", rec.Code, tc.status)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q", ct)
			}
			if got := rec.Body.String(); got != tc.want+"\n" {
				t.Errorf("body\n got %s\nwant %s", got, tc.want)
			}
			for _, o := range rowOutcomes {
				want := uint64(0)
				if o == tc.outcome {
					want = 1
				}
				if got := reg.Counter(tc.ep.outcomes, "outcome", o).Value(); got != want {
					t.Errorf("%s{outcome=%q} = %d, want %d", tc.ep.outcomes, o, got, want)
				}
			}
		})
	}
}
