// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload against the system as users run it, checks every
// answer, and prints each metric by name and unit; the last line of its
// standard output is a one-line JSON result. See README.md for why each
// workload exists and which end-to-end metric each per-layer metric
// should move.
//
// Usage (from the root of a checkout, via run.sh, which builds it and
// supremm-serve from that checkout):
//
//	bash perfbench/run.sh --workload serve-rows --seed 1 --seconds 8 --trace 0
//
// Workloads: serve-rows, serve-batch-shadow, ingest-stream. With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics from a separate traced run.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// runConfig is what every workload needs from the command line.
type runConfig struct {
	Seed     uint64
	Seconds  int
	Trace    bool
	ServeBin string
	Work     string
}

func main() {
	workload := flag.String("workload", "", "serve-rows, serve-batch-shadow or ingest-stream")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 8, "length of the measured reference phase in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	serveBin := flag.String("serve-bin", "", "supremm-serve binary built from the checkout")
	work := flag.String("work", ".", "scratch directory inside the checkout")
	flag.Parse()

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, ServeBin: *serveBin, Work: *work}

	// Never leave a spawned server behind, whatever ends the run.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(1)
	}()

	rep := newReport(*workload, cfg.Trace)
	var err error
	switch *workload {
	case serveRows.Name:
		err = runServe(serveRows, cfg, rep)
	case serveBatchShadow.Name:
		err = runServe(serveBatchShadow, cfg, rep)
	case "ingest-stream":
		err = runIngest(cfg, rep)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	killAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	want := names(endToEnd)
	if cfg.Trace {
		// A layer the workload does not exercise did no work: 0.
		for _, d := range perLayer {
			if _, ok := rep.metrics[d.Name]; !ok {
				rep.Set(d.Name, 0)
			}
		}
		want = names(perLayer)
	}
	rep.Write(os.Stdout, want)
	if !rep.Correct() {
		os.Exit(1)
	}
}
