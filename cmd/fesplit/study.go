package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fesplit"
)

// cmdStudy runs the full observed study on a worker pool and exports
// every view of it into one directory: the text report, figure CSVs,
// lossless JSONL + Prometheus metrics, tail-sampled JSONL spans and the
// self-contained HTML report. The headline property: for a fixed seed,
// every exported byte is identical whatever -workers is — the worker
// count buys wall-clock time, never different results.
func cmdStudy(args []string) error {
	fs := flag.NewFlagSet("study", flag.ExitOnError)
	seed := fs.Int64("seed", 42, "experiment seed")
	scale := fs.String("scale", "light", "study scale: light or full")
	workers := fs.Int("workers", runtime.NumCPU(),
		"worker goroutines for study cells and node batches (must be ≥ 1; capped at the cell count)")
	batches := fs.Int("node-batches", 0,
		"node batches for the default-FE campaign (0 → default; changes results, unlike -workers)")
	dir := fs.String("dir", "study-out", "output directory for the exported files")
	progress := fs.Bool("progress", false,
		"print a live heartbeat line to stderr every -progress-interval while the study runs")
	progressInterval := fs.Duration("progress-interval", time.Second,
		"wall-clock sampling cadence for -progress, runtime.jsonl and -listen snapshots")
	listen := fs.String("listen", "",
		"serve live telemetry over HTTP on this address (/metrics, /progress, /debug/pprof); empty disables")
	stream := fs.Bool("stream", false,
		"stream default-FE campaign records through mergeable accumulators instead of retaining datasets (bounded memory; identical figures)")
	linger := fs.Duration("linger", 0,
		"keep the -listen endpoint up this long after the study finishes (for scraping a completed run)")
	diurnal := fs.Bool("diurnal", false,
		"run the ephemeral-client fleet campaign (requires -clients) instead of the figure study; writes fleet.csv")
	clients := fs.Int("clients", 0,
		"fleet campaign arrival count for -diurnal (clients exist only for their one query; memory tracks peak concurrency)")
	horizon := fs.Duration("horizon", 10*time.Minute,
		"virtual-time span of the -diurnal rate curve (the compressed day; must be > 0)")
	fleetBatches := fs.Int("fleet-batches", 0,
		"strided arrival batches for -diurnal (0 → default; changes results, unlike -workers)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("study: -workers must be ≥ 1, got %d", *workers)
	}
	if *diurnal {
		return runFleetStudy(*seed, *clients, *horizon, *fleetBatches, *workers, *dir,
			*progress, *progressInterval, *listen)
	}
	if *clients > 0 {
		return fmt.Errorf("study: -clients requires -diurnal")
	}
	var cfg fesplit.StudyConfig
	switch *scale {
	case "light":
		cfg = fesplit.LightStudyConfig(*seed)
	case "full":
		cfg = fesplit.DefaultStudyConfig(*seed)
	default:
		return fmt.Errorf("study: unknown scale %q", *scale)
	}
	cfg.Workers = *workers
	cfg.NodeBatches = *batches
	cfg.StreamRecords = *stream

	// The output directory must exist before the run: runtime.jsonl
	// streams wall-clock telemetry while the study executes.
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	study := fesplit.NewStudy(cfg)
	telemetry := *progress || *listen != "" || *stream
	var sampler *fesplit.RuntimeSampler
	var server *fesplit.RuntimeServer
	if telemetry {
		eng := fesplit.NewRuntimeEngine()
		study.SetRuntime(eng)
		var consumers []fesplit.RuntimeConsumer
		if *progress {
			consumers = append(consumers, fesplit.RuntimeHeartbeat(os.Stderr))
		}
		rj, err := os.Create(filepath.Join(*dir, "runtime.jsonl"))
		if err != nil {
			return err
		}
		defer rj.Close()
		consumers = append(consumers, fesplit.RuntimeJSONL(rj))
		if *listen != "" {
			server, err = fesplit.NewRuntimeServer(eng, *listen)
			if err != nil {
				return fmt.Errorf("study: -listen %s: %w", *listen, err)
			}
			defer server.Close()
			fmt.Fprintf(os.Stderr, "study: telemetry listening on http://%s\n", server.Addr())
			consumers = append(consumers, server.OnSample)
		}
		sampler = fesplit.NewRuntimeSampler(eng, *progressInterval, consumers...)
		sampler.Start()
	}

	out, err := study.RunAllObserved()
	if sampler != nil {
		sampler.Stop() // flush one final snapshot before reporting
	}
	if err != nil {
		return fmt.Errorf("study: %w", err)
	}
	if err := out.Report.WriteCSVs(*dir); err != nil {
		return err
	}
	spans := out.Spans()
	files := []struct {
		name  string
		write func(f *os.File) error
	}{
		{"report.txt", func(f *os.File) error { return out.Report.WriteText(f) }},
		{"metrics.jsonl", func(f *os.File) error { return fesplit.WriteMetricsJSONL(f, out.Metrics) }},
		{"metrics.prom", func(f *os.File) error { return fesplit.WritePrometheus(f, out.Metrics) }},
		{"spans.jsonl", func(f *os.File) error { return fesplit.WriteSpansJSONL(f, spans) }},
		{"report.html", func(f *os.File) error { return out.Report.WriteHTML(f, out.Metrics, out.Exemplars) }},
	}
	for _, o := range files {
		f, err := os.Create(filepath.Join(*dir, o.name))
		if err != nil {
			return err
		}
		if err := o.write(f); err != nil {
			f.Close()
			return fmt.Errorf("study: writing %s: %w", o.name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr,
		"study: seed %d, scale %s, %d workers — %d metric families, %d tail exemplars\n",
		*seed, *scale, *workers, len(out.Metrics.Families()), len(out.Exemplars))
	if u, ok := fesplit.FastPathUsageFrom(out.Metrics); ok && u.HasReasons {
		fmt.Fprintf(os.Stderr,
			"study: fastpath fallbacks %.0f (loss %.0f, topology %.0f, teardown %.0f, disabled %.0f, loss-recovery %.0f)\n",
			u.Fallbacks, u.FallbackLoss, u.FallbackTopology, u.FallbackTeardown, u.FallbackDisabled, u.FallbackLossRecovery)
		fmt.Fprintf(os.Stderr,
			"study: fastpath lossy lanes %.0f re-entries, %.0f lane drops, %.1f segments/epoch\n",
			u.Reentries, u.LossDrops, u.EpochSegments)
	}
	if eng := study.Runtime(); eng != nil {
		fmt.Fprintf(os.Stderr, "study: peak heap %.1f MiB, %d records streamed\n",
			float64(eng.HeapWatermark())/(1<<20), eng.Records())
	}
	fmt.Fprintf(os.Stderr, "study: figures + metrics + reports written to %s\n", *dir)
	if server != nil && *linger > 0 {
		fmt.Fprintf(os.Stderr, "study: holding telemetry endpoint for %s\n", *linger)
		time.Sleep(*linger)
	}
	return nil
}

// runFleetStudy is the -diurnal branch of `fesplit study`: the
// ephemeral-client fleet campaign over the sharded runner, exporting
// fleet.csv plus the standard runtime telemetry. The headline property
// the scale-smoke gate pins: the heap watermark tracks peak concurrency
// (the diurnal curve), not the client count.
func runFleetStudy(seed int64, clients int, horizon time.Duration, batches, workers int,
	dir string, progress bool, progressInterval time.Duration, listen string) error {
	if clients <= 0 {
		return fmt.Errorf("study: -diurnal requires -clients > 0, got %d", clients)
	}
	// FleetStudyConfig reads a zero horizon as "use the default"; on
	// the command line it would silently run that default instead.
	if horizon <= 0 {
		return fmt.Errorf("study: -diurnal requires -horizon > 0, got %s", horizon)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cfg := fesplit.LightStudyConfig(seed)
	cfg.Workers = workers
	study := fesplit.NewStudy(cfg)
	eng := fesplit.NewRuntimeEngine()
	study.SetRuntime(eng)
	var consumers []fesplit.RuntimeConsumer
	if progress {
		consumers = append(consumers, fesplit.RuntimeHeartbeat(os.Stderr))
	}
	rj, err := os.Create(filepath.Join(dir, "runtime.jsonl"))
	if err != nil {
		return err
	}
	defer rj.Close()
	consumers = append(consumers, fesplit.RuntimeJSONL(rj))
	var server *fesplit.RuntimeServer
	if listen != "" {
		server, err = fesplit.NewRuntimeServer(eng, listen)
		if err != nil {
			return fmt.Errorf("study: -listen %s: %w", listen, err)
		}
		defer server.Close()
		fmt.Fprintf(os.Stderr, "study: telemetry listening on http://%s\n", server.Addr())
		consumers = append(consumers, server.OnSample)
	}
	sampler := fesplit.NewRuntimeSampler(eng, progressInterval, consumers...)
	sampler.Start()
	res, err := study.RunFleetStudy(fesplit.FleetStudyConfig{
		Clients: clients,
		Horizon: horizon,
		Batches: batches,
		Workers: workers,
	})
	sampler.Stop()
	if err != nil {
		return fmt.Errorf("study: fleet campaign: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, "fleet.csv"))
	if err != nil {
		return err
	}
	if err := res.WriteFleetCSV(f); err != nil {
		f.Close()
		return fmt.Errorf("study: writing fleet.csv: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	m := res.Merged
	fmt.Fprintf(os.Stderr,
		"study: fleet seed %d — %d arrivals over %s, %d pooled slots (peak live %d), %d rejected, %d tail exemplars\n",
		seed, m.Arrivals, horizon, m.Slots, m.PeakLive, m.Rejected, len(res.Exemplars))
	fmt.Fprintf(os.Stderr,
		"study: overall p50/p99 %.1f/%.1f ms — peak heap %.1f MiB for %d clients\n",
		res.Overall.Quantile(0.5), res.Overall.Quantile(0.99),
		float64(res.HeapWatermark)/(1<<20), clients)
	fmt.Fprintf(os.Stderr, "study: fleet.csv written to %s\n", dir)
	return nil
}
