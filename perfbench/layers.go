package main

// metricDef is one metric the benchmark reports. For a per-layer
// metric, Moves names the end-to-end metric it should move and On the
// workload where it should move it.
type metricDef struct {
	Name, Unit string
	Moves, On  string
}

// endToEnd lists the untraced metrics every workload reports. Each
// workload fills control_ms with its own control-plane operation: the
// model reload (serve-rows), the challenger retrain (serve-batch-shadow)
// or the warehouse snapshot plus group-by (ingest-stream).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "p50_ms", Unit: "ms"},
	{Name: "p90_ms", Unit: "ms"},
	{Name: "max_rate", Unit: "1/s"},
	{Name: "peak_rss_mb", Unit: "MB"},
	{Name: "control_ms", Unit: "ms"},
}

// perLayer lists the traced metrics. A traced run reports all of them;
// a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"server.request_us", "us", "p50_ms", "serve-rows"},
	{"net.transport_us", "us", "p50_ms", "serve-rows"},
	{"server.handler_us", "us", "max_rate", "serve-rows"},
	{"server.allocs_per_req", "count", "max_rate", "serve-rows"},
	{"server.bytes_per_req", "B", "max_rate", "serve-rows"},
	{"stage.decode_us", "us", "max_rate", "serve-rows"},
	{"stage.resolve_us", "us", "max_rate", "serve-rows"},
	{"stage.infer_us", "us", "max_rate", "serve-rows"},
	{"stage.encode_us", "us", "max_rate", "serve-rows"},
	{"stage.record_us", "us", "max_rate", "serve-rows"},
	{"stage.residual_us", "us", "max_rate", "serve-rows"},
	{"server.batch_pool_us", "us", "p50_ms", "serve-batch-shadow"},
	{"core.infer_us", "us", "max_rate", "serve-batch-shadow"},
	{"core.swap_ms", "ms", "control_ms", "serve-rows"},
	{"lifecycle.observe_us", "us", "max_rate", "serve-batch-shadow"},
	{"lifecycle.shadow_us", "us", "p50_ms", "serve-batch-shadow"},
	{"lifecycle.train_s", "s", "control_ms", "serve-batch-shadow"},
	{"lifecycle.shadow_useful_ratio", "ratio", "max_rate", "serve-batch-shadow"},
	{"ingest.send_wait_us", "us", "p90_ms", "ingest-stream"},
	{"ingest.pending_max", "count", "max_rate", "ingest-stream"},
	{"ingest.shard_depth_max", "count", "max_rate", "ingest-stream"},
	{"ingest.finalize_us", "us", "p50_ms", "ingest-stream"},
	{"ingest.duplicate_ratio", "ratio", "max_rate", "ingest-stream"},
	{"ingest.reconnects", "count", "max_rate", "ingest-stream"},
	{"ingest.dropped", "count", "max_rate", "ingest-stream"},
	{"stage.frame_decode_us", "us", "p50_ms", "ingest-stream"},
	{"stage.summarize_us", "us", "p50_ms", "ingest-stream"},
	{"warehouse.apply_us", "us", "p90_ms", "ingest-stream"},
	{"warehouse.snapshot_us", "us", "control_ms", "ingest-stream"},
	{"warehouse.groupby_us", "us", "control_ms", "ingest-stream"},
	{"setup.pipeline_s", "s", "setup_s", "serve-*"},
	{"setup.train_s", "s", "setup_s", "serve-*"},
	{"setup.discovery_s", "s", "setup_s", "serve-*"},
	{"sut.cpu_us_per_op", "us", "max_rate", "all"},
	{"loadgen.cpu_us_per_op", "us", "none (generator guard)", "all"},
	{"loadgen.late_tail_ms", "ms", "none (generator guard)", "all"},
	{"trace.overhead_pct", "%", "none (tracing cost)", "all"},
}

var layerByName = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, d := range perLayer {
		m[d.Name] = d
	}
	return m
}()

// names returns the metric names of defs, in order.
func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

// unitOf returns the declared unit of a metric.
func unitOf(name string) string {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Unit
		}
	}
	return layerByName[name].Unit
}
