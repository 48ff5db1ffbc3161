package main

// The three workloads. Each one drives the public library API exactly
// as a user would (run), and again with spans around the calls into
// each layer (traced). The traced variants of fleet and fixedfe rebuild
// the public call from the same internal steps so that every layer
// boundary can be timed; they must reproduce the untraced output digest
// byte for byte, which the harness checks.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"fesplit"
	"fesplit/internal/analysis"
	"fesplit/internal/emulator"
	"fesplit/internal/obs"
	"fesplit/internal/shard"
	"fesplit/internal/simnet"
	"fesplit/internal/stats"
)

// workers is the host concurrency every workload runs at: the
// reference machine has two CPUs.
const workers = 2

// workload is one named benchmark workload.
type workload struct {
	name string
	// setup constructs the workload's simulated worlds once through the
	// public constructors, without running them.
	setup func(rc *runCtx) error
	// run is the untraced call; traced is the same work with spans and
	// layer counters. Both return the checked outcome.
	run, traced func(rc *runCtx) (*outcome, error)
	// post, when set, adds per-layer readings after the traced call,
	// outside its profile.
	post func(rc *runCtx, o *outcome) error
}

var workloads = []workload{
	{name: "study", setup: studySetup, run: studyRun, traced: studyRun, post: studyCells},
	{name: "fleet", setup: fleetSetup, run: fleetRun, traced: fleetTraced},
	{name: "fixedfe", setup: fixedFESetup, run: fixedFERun, traced: fixedFETraced},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runCtx is what one child process knows about its run.
type runCtx struct {
	seed int64
	tiny bool   // smoke size: same code path, a fraction of the work
	root string // repository root (testdata/golden lives there)
	dir  string // scratch output directory, private to this run
	tr   *tracer
}

// outcome is what a workload call produced, reduced to what the harness
// checks and reports.
type outcome struct {
	attempted, completed int
	digest               string             // hash of the deterministic output
	exact                map[string]float64 // counts that must repeat bit for bit
	layer                map[string]float64 // per-layer readings (traced runs)
	failures             []string           // failed output checks
	passed               []string           // passed checks worth reporting
}

func newOutcome() *outcome {
	return &outcome{exact: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) failf(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// engineCounts copies the runtime engine's deterministic counters.
func (o *outcome) engineCounts(eng *fesplit.RuntimeEngine) {
	snap := eng.Snapshot()
	o.exact["simnet.events"] = float64(snap.Events)
	o.exact["simnet.sim_s"] = snap.SimSeconds
	o.exact["simnet.heap_depth_max"] = float64(snap.HeapDepthMax)
	o.exact["tcpsim.fast_epochs"] = float64(snap.Fastpath.Epochs)
	o.exact["tcpsim.fast_segments"] = float64(snap.Fastpath.Segments)
	o.exact["tcpsim.fast_bytes"] = float64(snap.Fastpath.Bytes)
	o.exact["tcpsim.fallbacks"] = float64(snap.Fastpath.Fallbacks)
	o.exact["shard.tasks"] = float64(snap.Tasks.Total)
}

// registryCounts copies the merged metrics registry's stack counters.
func (o *outcome) registryCounts(reg *obs.Registry) {
	o.exact["frontend.requests"] = familySum(reg, "fe_requests_total")
	o.exact["backend.requests"] = familySum(reg, "be_requests_total")
	o.exact["backend.rejections"] = familySum(reg, "be_rejections_total")
	o.exact["tcpsim.retransmits"] = familySum(reg, "tcp_retransmits_total")
	breaks := familySum(reg, "critpath_conservation_breaks_total")
	o.exact["analysis.critpath_breaks"] = breaks
	if breaks != 0 {
		o.failf("critical-path conservation broke %v times", breaks)
	}
}

// familySum adds up every counter and gauge series of a family.
func familySum(reg *obs.Registry, name string) float64 {
	var sum float64
	for _, f := range reg.Families() {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series() {
			switch {
			case s.Counter != nil:
				sum += s.Counter.Value()
			case s.Gauge != nil:
				sum += s.Gauge.Value()
			}
		}
	}
	return sum
}

// --- study: the light study with every export ---------------------------

func studyConfig(rc *runCtx) fesplit.StudyConfig {
	cfg := fesplit.LightStudyConfig(rc.seed)
	if rc.tiny {
		cfg.Nodes = 10
		cfg.QueriesPerNodeA = 2
		cfg.RepeatsB = 2
		cfg.Fig3Samples = 12
		cfg.CachingRepeats = 2
	}
	cfg.Workers = workers
	return cfg
}

// studyServices are the study's two deployments, in its service order.
func studyServices(seed int64) []fesplit.DeploymentConfig {
	return []fesplit.DeploymentConfig{fesplit.BingLike(seed + 1), fesplit.GoogleLike(seed + 2)}
}

func studySetup(rc *runCtx) error { return serviceWorlds(rc, studyConfig(rc).Nodes, false) }

// serviceWorlds builds one Runner world per service, as the study's
// fixed-FE cells do, without running it.
func serviceWorlds(rc *runCtx, nodes int, snap bool) error {
	for _, dep := range studyServices(rc.seed) {
		if _, err := emulator.New(rc.seed+41, dep, emulator.Options{
			Nodes: nodes, FleetSeed: rc.seed + 42, SnapPayloads: snap,
		}); err != nil {
			return err
		}
	}
	return nil
}

// studyRun is the study workload. Traced, it also records spans around
// RunAllObserved and each export; the per-figure timings come from
// studyCells, which runs after the profile stops.
func studyRun(rc *runCtx) (*outcome, error) {
	s := fesplit.NewStudy(studyConfig(rc))
	eng := fesplit.NewRuntimeEngine()
	s.SetRuntime(eng)
	var out *fesplit.StudyOutput
	err := rc.tr.span("fesplit.RunAllObserved", func() (err error) {
		out, err = s.RunAllObserved()
		return err
	})
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	if rc.tr != nil {
		o.layer["emulator.retained_mib"] = retainedMiB()
	}
	if err := studyExports(rc, out); err != nil {
		return nil, err
	}
	if rc.tr != nil {
		o.layer["study.export_s"] = rc.tr.total("export/")
	}
	o.engineCounts(eng)
	o.registryCounts(out.Metrics)
	o.attempted = int(o.exact["frontend.requests"])
	o.completed = o.attempted
	if o.digest, err = dirDigest(rc.dir); err != nil {
		return nil, err
	}
	if rc.seed == 42 && !rc.tiny {
		if err := compareGolden(rc, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// studyExports writes the six exports `fesplit study` writes.
func studyExports(rc *runCtx, out *fesplit.StudyOutput) error {
	if err := rc.tr.span("export/csv", func() error { return out.Report.WriteCSVs(rc.dir) }); err != nil {
		return err
	}
	spans := out.Spans()
	files := []struct {
		name  string
		write func(w io.Writer) error
	}{
		{"report.txt", func(w io.Writer) error { return out.Report.WriteText(w) }},
		{"metrics.jsonl", func(w io.Writer) error { return fesplit.WriteMetricsJSONL(w, out.Metrics) }},
		{"metrics.prom", func(w io.Writer) error { return fesplit.WritePrometheus(w, out.Metrics) }},
		{"spans.jsonl", func(w io.Writer) error { return fesplit.WriteSpansJSONL(w, spans) }},
		{"report.html", func(w io.Writer) error { return out.Report.WriteHTML(w, out.Metrics, out.Exemplars) }},
	}
	for _, e := range files {
		if err := rc.tr.span("export/"+e.name, func() error { return writeFile(filepath.Join(rc.dir, e.name), e.write) }); err != nil {
			return err
		}
	}
	return nil
}

// compareGolden checks the figure CSVs against testdata/golden, which
// pins the light study at seed 42.
func compareGolden(rc *runCtx, o *outcome) error {
	golden, err := filepath.Glob(filepath.Join(rc.root, "testdata", "golden", "*.csv"))
	if err != nil {
		return err
	}
	if len(golden) == 0 {
		o.failf("no golden CSVs under testdata/golden")
	}
	for _, g := range golden {
		want, err := os.ReadFile(g)
		if err != nil {
			return err
		}
		got, err := os.ReadFile(filepath.Join(rc.dir, filepath.Base(g)))
		if err != nil || !bytes.Equal(got, want) {
			o.failf("%s differs from testdata/golden", filepath.Base(g))
		}
	}
	if len(o.failures) == 0 {
		o.passed = append(o.passed, fmt.Sprintf("%d figure CSVs byte-identical to testdata/golden", len(golden)))
	}
	return nil
}

// studyCells times the study's public per-cell methods on one serial
// study. A method covers both services' cells of its figure.
func studyCells(rc *runCtx, o *outcome) error {
	s := fesplit.NewStudy(studyConfig(rc))
	cells := []struct {
		metric string
		run    func() error
	}{
		{"study.fig3_s", func() error { _, err := s.Fig3(); return err }},
		{"study.fig4_s", func() error { _, err := s.Fig4(); return err }},
		{"study.fig5_s", func() error { _, err := s.Fig5(); return err }},
		{"study.figA_s", func() error {
			if _, err := s.Fig6(); err != nil {
				return err
			}
			if _, err := s.Fig7(); err != nil {
				return err
			}
			_, err := s.Fig8()
			return err
		}},
		{"study.fig9_s", func() error { _, err := s.Fig9(); return err }},
		{"study.caching_s", func() error { _, err := s.Caching(); return err }},
		{"study.term_effect_s", func() error { _, err := s.TermEffect(); return err }},
		{"study.wireless_s", func() error { _, err := s.Wireless(); return err }},
		{"study.queue_s", func() error {
			if _, err := s.Overload(); err != nil {
				return err
			}
			if _, err := s.Hotspot(); err != nil {
				return err
			}
			if _, err := s.Failover(); err != nil {
				return err
			}
			_, err := s.Capacity()
			return err
		}},
		{"study.other_s", func() error {
			if _, err := s.Interactive("cloud computing performance"); err != nil {
				return err
			}
			_, err := s.ModelValidation()
			return err
		}},
	}
	for _, c := range cells {
		start := time.Now()
		if err := rc.tr.span("cell/"+c.metric, c.run); err != nil {
			return fmt.Errorf("%s: %w", c.metric, err)
		}
		d := time.Since(start).Seconds()
		o.layer[c.metric] = d
		if d > o.layer["study.longest_cell_s"] {
			o.layer["study.longest_cell_s"] = d
		}
	}
	return nil
}

// --- fleet: the streaming diurnal campaign ------------------------------

func fleetClients(rc *runCtx) int {
	if rc.tiny {
		return 500
	}
	return 50_000
}

// fleetOptions mirrors the per-batch options RunFleetStudy derives from
// FleetStudyConfig{Clients: n} with its default horizon and batch count.
func fleetOptions(rc *runCtx) (emulator.FleetOptions, obs.TailConfig) {
	fc := fesplit.FleetStudyConfig{Clients: fleetClients(rc), Horizon: 10 * time.Minute}
	fc.PeakRate = 1.02 * float64(fc.Clients) / (0.5375 * fc.Horizon.Seconds())
	return emulator.FleetOptions{
		Clients:   fc.Clients,
		Curve:     fc.Curve(),
		QuerySeed: rc.seed + 102,
		FleetSeed: rc.seed + 103,
	}, obs.TailConfig{MaxCandidates: 4 * 64}
}

func fleetSetup(rc *runCtx) error {
	fo, _ := fleetOptions(rc)
	fo.Sink = discardSink{}
	dep := fesplit.GoogleLike(rc.seed + 2)
	for b := 0; b < emulator.DefaultNodeBatches; b++ {
		if _, err := emulator.NewFleetRunner(shard.Mix(rc.seed+101, uint64(b)), dep, fo); err != nil {
			return err
		}
	}
	return nil
}

type discardSink struct{}

func (discardSink) Consume(*emulator.Record) {}

func fleetRun(rc *runCtx) (*outcome, error) {
	cfg := fesplit.LightStudyConfig(rc.seed)
	cfg.Workers = workers
	s := fesplit.NewStudy(cfg)
	eng := fesplit.NewRuntimeEngine()
	s.SetRuntime(eng)
	res, err := s.RunFleetStudy(fesplit.FleetStudyConfig{Clients: fleetClients(rc), Workers: workers})
	if err != nil {
		return nil, err
	}
	if err := writeFile(filepath.Join(rc.dir, "fleet.csv"), res.WriteFleetCSV); err != nil {
		return nil, err
	}
	o := newOutcome()
	o.engineCounts(eng)
	return o, fleetCheck(rc, o, res)
}

func fleetCheck(rc *runCtx, o *outcome, res *fesplit.FleetStudyResult) error {
	m := res.Merged
	o.attempted, o.completed = fleetClients(rc), m.Completed
	if m.Arrivals != o.attempted || m.Completed != o.attempted {
		o.failf("fleet: %d arrivals, %d completed, want %d", m.Arrivals, m.Completed, o.attempted)
	}
	o.exact["emulator.fleet_slots"] = float64(m.Slots)
	o.exact["emulator.fleet_peak_live"] = float64(m.PeakLive)
	o.exact["frontend.peak_fetch_log"] = float64(m.PeakFELog)
	var err error
	o.digest, err = fileDigest(filepath.Join(rc.dir, "fleet.csv"))
	return err
}

// fleetSink is RunFleetStudy's per-batch fold, rebuilt from the same
// analysis and sketch calls, with its Consume time accumulated.
type fleetSink struct {
	boundary   int
	ts         *obs.TailSampler
	overall    *stats.Sketch
	dynamic    *stats.Sketch
	extracted  int
	violations int
	busy       time.Duration
}

func (k *fleetSink) Consume(rec *emulator.Record) {
	start := time.Now()
	k.overall.Add(float64(rec.OverallDelay()) / float64(time.Millisecond))
	if !rec.Failed && len(rec.Events) > 0 {
		if p, err := analysis.ExtractRecord(*rec, k.boundary); err == nil {
			k.extracted++
			k.dynamic.Add(float64(p.Tdynamic) / float64(time.Millisecond))
			if analysis.SampleTailTransient(k.ts, rec, p, fesplit.DefaultBoundTolerance) {
				k.violations++
			}
		}
	}
	k.busy += time.Since(start)
}

// fleetTraced is RunFleetStudy rebuilt around emulator.RunFleet so the
// boundary probe, the campaign and the per-record fold are timed apart.
func fleetTraced(rc *runCtx) (*outcome, error) {
	eng := fesplit.NewRuntimeEngine()
	dep := fesplit.GoogleLike(rc.seed + 2)
	var boundary int
	if err := rc.tr.span("fesplit.boundary", func() (err error) {
		boundary, err = probeBoundary(rc.seed, dep, eng)
		return err
	}); err != nil {
		return nil, err
	}
	fo, tail := fleetOptions(rc)
	var sinks []*fleetSink
	var regs []*obs.Registry
	var results []*emulator.FleetResult
	err := rc.tr.span("emulator.RunFleet", func() (err error) {
		sinks = make([]*fleetSink, emulator.DefaultNodeBatches)
		regs = make([]*obs.Registry, emulator.DefaultNodeBatches)
		results, _, _, err = emulator.RunFleet(emulator.FleetShardedOptions{
			SimSeed: rc.seed + 101, Deployment: dep, Fleet: fo, Workers: workers,
			Sink: func(b int) emulator.RecordSink {
				sinks[b] = &fleetSink{boundary: boundary, ts: obs.NewTailSampler(tail),
					overall: stats.NewSketch(0), dynamic: stats.NewSketch(0)}
				return sinks[b]
			},
			Observe: func(b int) *obs.Observer {
				regs[b] = obs.NewRegistry()
				return &obs.Observer{Reg: regs[b], Tail: obs.NewTailSampler(tail)}
			},
			Runtime: eng,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	res := &fesplit.FleetStudyResult{
		Merged: emulator.MergeFleetResults(results...), Batches: results,
		Overall: stats.NewSketch(0), Dynamic: stats.NewSketch(0),
	}
	merged := obs.NewRegistry()
	var busy time.Duration
	for b, k := range sinks {
		res.Overall.Merge(k.overall)
		res.Dynamic.Merge(k.dynamic)
		res.Extracted += k.extracted
		res.Violations += k.violations
		busy += k.busy
		if err := merged.Merge(regs[b]); err != nil {
			return nil, err
		}
	}
	o := newOutcome()
	o.layer["emulator.retained_mib"] = retainedMiB()
	runtime.KeepAlive(res)
	if err := rc.tr.span("export/fleet.csv", func() error {
		return writeFile(filepath.Join(rc.dir, "fleet.csv"), res.WriteFleetCSV)
	}); err != nil {
		return nil, err
	}
	o.engineCounts(eng)
	o.registryCounts(merged)
	o.layer["emulator.run_s"] = rc.tr.total("emulator.RunFleet")
	o.layer["analysis.extract_s"] = busy.Seconds()
	rc.tr.add("sink.Consume (summed over batches)", "emulator.RunFleet", busy)
	return o, fleetCheck(rc, o, res)
}

// probeBoundary is the study's content-boundary probe: a keyword sweep
// from the node nearest a default FE, then cross-query content analysis.
func probeBoundary(seed int64, dep fesplit.DeploymentConfig, eng *fesplit.RuntimeEngine) (int, error) {
	runner, err := emulator.New(seed+71, dep, emulator.Options{Nodes: 6, FleetSeed: seed + 72, Runtime: eng})
	if err != nil {
		return 0, err
	}
	fe := runner.Dep.DefaultFE(runner.Fleet.Nodes[0].Point)
	sweep := runner.KeywordSweep(fe, runner.NearestNode(fe), 2, 2*time.Second, seed+73)
	merged := &emulator.Dataset{}
	for _, sd := range sweep {
		merged.Records = append(merged.Records, sd.Records...)
	}
	b := analysis.BoundaryFromDataset(merged)
	if b <= 0 {
		return 0, fmt.Errorf("boundary probe failed for %s", dep.Name)
	}
	return b, nil
}

// --- fixedfe: Fig 5 at a tenth of the paper's repeats -------------------

func fixedFEConfig(rc *runCtx) fesplit.StudyConfig {
	cfg := fesplit.DefaultStudyConfig(rc.seed)
	cfg.RepeatsB = 72
	if rc.tiny {
		cfg.Nodes, cfg.RepeatsB = 20, 2
	}
	cfg.Workers = workers
	return cfg
}

func fixedFESetup(rc *runCtx) error { return serviceWorlds(rc, fixedFEConfig(rc).Nodes, true) }

func fixedFERun(rc *runCtx) (*outcome, error) {
	s := fesplit.NewStudy(fixedFEConfig(rc))
	eng := fesplit.NewRuntimeEngine()
	s.SetRuntime(eng)
	data, err := s.Fig5()
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.engineCounts(eng)
	return o, fixedFECheck(rc, o, data)
}

func fixedFECheck(rc *runCtx, o *outcome, data []*fesplit.Fig5Data) error {
	cfg := fixedFEConfig(rc)
	o.attempted = 2 * cfg.Nodes * cfg.RepeatsB
	for _, d := range data {
		if !d.BoundsOK {
			o.failf("fixedfe: %s inference bounds [%.2f, %.2f] ms miss the truth %.2f ms",
				d.Service, d.BoundLoMS, d.BoundHiMS, d.TruthMS)
		}
		for _, n := range d.Nodes {
			o.completed += n.N
		}
	}
	if len(data) != 2 {
		o.failf("fixedfe: %d services, want 2", len(data))
	}
	b, err := json.Marshal(data)
	if err != nil {
		return err
	}
	o.digest = digest(b)
	return nil
}

// fixedFETraced rebuilds Fig5 from the calls fig5For makes, timing each:
// emulator.New, RunExperimentB, analysis.ExtractDataset, PerNode. It
// reads FE and BE counts from the deployment rather than wiring a
// metrics observer, which would change the fast lane's counters.
func fixedFETraced(rc *runCtx) (*outcome, error) {
	cfg := fixedFEConfig(rc)
	eng := fesplit.NewRuntimeEngine()
	o := newOutcome()
	var data []*fesplit.Fig5Data
	var feServed, beServed, beRejected int
	for _, dep := range studyServices(rc.seed) {
		var boundary int
		if err := rc.tr.span("fesplit.boundary", func() (err error) {
			boundary, err = probeBoundary(rc.seed, dep, eng)
			return err
		}); err != nil {
			return nil, err
		}
		var runner *emulator.Runner
		if err := rc.tr.span("emulator.New", func() (err error) {
			runner, err = emulator.New(rc.seed+41, dep, emulator.Options{
				Nodes: cfg.Nodes, FleetSeed: rc.seed + 42, SnapPayloads: true, Runtime: eng,
			})
			return err
		}); err != nil {
			return nil, err
		}
		fe := runner.Dep.FEByHost(simnet.HostID(dep.Name + "-fe-metro-chicago"))
		if fe == nil {
			fe = runner.Dep.FEs[0]
		}
		var ds *emulator.Dataset
		if err := rc.tr.span("emulator.RunExperimentB", func() (err error) {
			ds, err = runner.RunExperimentB(emulator.BOptions{
				FE: fe, Repeats: cfg.RepeatsB, Interval: cfg.IntervalB, QuerySeed: rc.seed + 43,
			})
			return err
		}); err != nil {
			return nil, err
		}
		if mib := retainedMiB(); mib > o.layer["emulator.retained_mib"] {
			o.layer["emulator.retained_mib"] = mib
		}
		var params []analysis.Params
		rc.tr.span("analysis.ExtractDataset", func() error {
			params = analysis.ExtractDataset(ds, boundary)
			return nil
		})
		var nodes []analysis.NodeSummary
		rc.tr.span("analysis.PerNode", func() error {
			nodes = analysis.PerNode(params)
			return nil
		})
		thr, hasThr := analysis.DeltaThreshold(nodes, 2*time.Millisecond)
		lo, truth, hi, ok := analysis.ValidateBounds(params, ds.FEFetchTimes[fe.Host()])
		data = append(data, &fesplit.Fig5Data{
			Service: dep.Name, FixedFE: string(fe.Host()), Nodes: nodes,
			ThresholdMS: float64(thr) / float64(time.Millisecond), HasThresh: hasThr,
			BoundLoMS: lo, TruthMS: truth, BoundHiMS: hi, BoundsOK: ok,
		})
		for _, f := range runner.Dep.FEs {
			feServed += f.Served()
		}
		for _, dc := range runner.Dep.BEs {
			beServed += dc.Served()
			beRejected += dc.Rejected()
		}
	}
	o.engineCounts(eng)
	o.exact["frontend.requests"] = float64(feServed)
	o.exact["backend.requests"] = float64(beServed)
	o.exact["backend.rejections"] = float64(beRejected)
	o.layer["emulator.run_s"] = rc.tr.total("emulator.RunExperimentB")
	o.layer["analysis.extract_s"] = rc.tr.total("analysis.ExtractDataset")
	return o, fixedFECheck(rc, o, data)
}

// --- helpers ------------------------------------------------------------

// retainedMiB is the live heap after a forced collection.
func retainedMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", filepath.Base(path), err)
	}
	return f.Close()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func fileDigest(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// dirDigest hashes every file of a flat directory, names included, in
// name order.
func dirDigest(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", n, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
