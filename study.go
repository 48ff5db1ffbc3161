package fesplit

import (
	"fmt"
	"sort"
	"time"

	"fesplit/internal/analysis"
	"fesplit/internal/backend"
	"fesplit/internal/capture"
	"fesplit/internal/cdn"
	"fesplit/internal/emulator"
	"fesplit/internal/frontend"
	"fesplit/internal/geo"
	"fesplit/internal/httpsim"
	"fesplit/internal/obs"
	rt "fesplit/internal/obs/runtime"
	"fesplit/internal/shard"
	"fesplit/internal/simnet"
	"fesplit/internal/stats"
	"fesplit/internal/tcpsim"
	"fesplit/internal/workload"
)

// BoxPlot is the five-number summary with Tukey whiskers (Figure 8).
type BoxPlot = stats.BoxPlot

// StudyConfig scales the reproduction study.
type StudyConfig struct {
	// Seed drives every random choice; equal seeds reproduce the
	// study bit-identically.
	Seed int64
	// Nodes is the vantage fleet size (paper: 200–250).
	Nodes int
	// QueriesPerNodeA and IntervalA parameterize Experiment A
	// (default-FE, paper pacing: one query every 10 s).
	QueriesPerNodeA int
	IntervalA       time.Duration
	// RepeatsB and IntervalB parameterize Experiment B (fixed FE;
	// paper: 720 repeats).
	RepeatsB  int
	IntervalB time.Duration
	// Fig3Samples sequential queries per keyword class, smoothed with
	// a moving median of Fig3Window (paper: 500 samples, window 10).
	Fig3Samples int
	Fig3Window  int
	// Fig9RTTCap: only sessions with client RTT below this
	// approximate Tfetch by Tdynamic (paper Section 5).
	Fig9RTTCap time.Duration
	// Fig9MileCap drops FEs farther than this from the data center —
	// the paper's revision "only consider[s] front-end servers close
	// enough to the BE servers" (its Figure-9 x-range is a few hundred
	// miles). Default 2000.
	Fig9MileCap float64
	// CachingRepeats per node for the Section-3 probe.
	CachingRepeats int
	// Workers caps the goroutines running study cells and node batches
	// (0 → runtime.NumCPU, negative → error). Workers schedules work,
	// nothing else: every figure, metrics dump and report is
	// byte-identical for Workers=1 and Workers=N. See docs/PARALLEL.md.
	Workers int
	// NodeBatches splits the default-FE campaign (Figures 6–8) into
	// this many independent node-batch worlds (0 →
	// emulator.DefaultNodeBatches). Unlike Workers it IS part of the
	// shard layout: changing it changes the (still deterministic)
	// figure data, because batches are isolated simulations.
	NodeBatches int
	// StreamRecords switches the default-FE campaign (Figures 6–8) to
	// the streaming record path: each node batch folds its records into
	// mergeable accumulators (parameter lists, quantile sketches, tail
	// samplers) at emission time and drops the batch dataset, so the
	// campaign's live heap is bounded by one batch world instead of the
	// full record history. Figure output is byte-identical either way;
	// only exported sketch Sum fields may differ in final-bit float
	// rounding (merge order). See docs/METRICS.md.
	StreamRecords bool
	// BESlowdown, when > 0 and ≠ 1, scales both deployments' BE
	// processing-cost model (base and per-term) by this factor — a
	// controlled latency-regression injection for exercising the
	// `fesplit diff` gate (the be-proc critical-path phase must move,
	// nothing else should). Zero leaves the calibrated models untouched.
	BESlowdown float64
}

// DefaultStudyConfig is the full paper-scale configuration. A complete
// run takes a few minutes of wall time.
func DefaultStudyConfig(seed int64) StudyConfig {
	return StudyConfig{
		Seed:            seed,
		Nodes:           250,
		QueriesPerNodeA: 20,
		IntervalA:       10 * time.Second,
		RepeatsB:        720,
		IntervalB:       10 * time.Second,
		Fig3Samples:     500,
		Fig3Window:      10,
		Fig9RTTCap:      40 * time.Millisecond,
		Fig9MileCap:     2000,
		CachingRepeats:  20,
	}
}

// LightStudyConfig is a scaled-down configuration for tests, benches
// and quick exploration: the same shapes at ~1% of the compute.
func LightStudyConfig(seed int64) StudyConfig {
	return StudyConfig{
		Seed:            seed,
		Nodes:           50,
		QueriesPerNodeA: 6,
		IntervalA:       3 * time.Second,
		RepeatsB:        10,
		IntervalB:       3 * time.Second,
		Fig3Samples:     60,
		Fig3Window:      10,
		Fig9RTTCap:      40 * time.Millisecond,
		Fig9MileCap:     2000,
		CachingRepeats:  6,
	}
}

// Study runs the reproduction experiments and caches shared datasets.
type Study struct {
	cfg        StudyConfig
	expA       map[string]*expAResult
	boundaries map[string]int
	// obsv, when non-nil, collects this study's metrics and tail
	// exemplars. Set only on the per-cell sub-studies RunAllObserved
	// spawns — a Study is not goroutine-safe, so observation is wired
	// per cell and merged in canonical order afterwards.
	obsv *obs.Observer
	// rt, when non-nil, receives wall-clock engine telemetry (event
	// rates, heap watermarks, fast-path activity, cell progress) from
	// every world this study builds. Unlike obsv it is shared across
	// cells — the engine is atomic — and it is pure observation: every
	// deterministic output is byte-identical with or without it.
	rt *rt.Engine
}

// NewStudy creates a study with the given configuration.
func NewStudy(cfg StudyConfig) *Study {
	return &Study{
		cfg:        cfg,
		expA:       make(map[string]*expAResult),
		boundaries: make(map[string]int),
	}
}

// boundaryFor derives (and caches) a service's static/dynamic content
// boundary with a small dedicated probe run: a handful of distinct
// queries from a node near its default FE, full payload capture, then
// cross-query content analysis. The boundary is a property of the
// service's content, so one probe serves every experiment — including
// the large payload-snapped campaigns where content analysis is
// impossible by design.
func (s *Study) boundaryFor(cfg DeploymentConfig) (int, error) {
	if b, ok := s.boundaries[cfg.Name]; ok {
		return b, nil
	}
	runner, err := emulator.New(s.cfg.Seed+71, cfg,
		emulator.Options{Nodes: 6, FleetSeed: s.cfg.Seed + 72, Runtime: s.rt})
	if err != nil {
		return 0, err
	}
	fe := runner.Dep.DefaultFE(runner.Fleet.Nodes[0].Point)
	node := runner.NearestNode(fe)
	sweep := runner.KeywordSweep(fe, node, 2, 2*time.Second, s.cfg.Seed+73)
	merged := &emulator.Dataset{}
	for _, sd := range sweep {
		merged.Records = append(merged.Records, sd.Records...)
	}
	b := analysis.BoundaryFromDataset(merged)
	if b <= 0 {
		return 0, fmt.Errorf("fesplit: boundary probe failed for %s", cfg.Name)
	}
	s.boundaries[cfg.Name] = b
	return b, nil
}

// Config returns the study configuration.
func (s *Study) Config() StudyConfig { return s.cfg }

// SetRuntime attaches an engine-telemetry hub. Every simulated world
// the study subsequently builds publishes event counts, sim-time
// progress, fast-path activity and heap samples to it, and the cell
// matrix reports task progress. Telemetry never feeds back into the
// simulation: results are byte-identical with or without it.
func (s *Study) SetRuntime(e *rt.Engine) { s.rt = e }

// Runtime returns the attached telemetry hub (nil when unset).
func (s *Study) Runtime() *rt.Engine { return s.rt }

// serviceConfigs returns the two deployments under study, with the
// configured BE-slowdown injection (if any) applied to both.
func (s *Study) serviceConfigs() []DeploymentConfig {
	cfgs := []DeploymentConfig{BingLike(s.cfg.Seed + 1), GoogleLike(s.cfg.Seed + 2)}
	if f := s.cfg.BESlowdown; f > 0 && f != 1 {
		for i := range cfgs {
			cfgs[i].Cost.Base = time.Duration(float64(cfgs[i].Cost.Base) * f)
			cfgs[i].Cost.PerTerm = time.Duration(float64(cfgs[i].Cost.PerTerm) * f)
		}
	}
	return cfgs
}

type expAResult struct {
	ds       *Dataset
	boundary int
	params   []Params
	nodes    []NodeSummary
}

// paramSink folds records into mergeable accumulators at emission
// time — the streaming alternative to retaining a dataset. It serves
// each batch of the default-FE campaign and the streamed fixed-FE
// campaigns. It applies exactly the skip conditions of
// analysis.ExtractDataset (failed record, no events, unparseable
// session), so its parameters in issue order equal the accumulated
// dataset's extraction byte for byte; tail offers additionally require
// an assembled span, mirroring analysis.SampleTails. The observers are
// optional (nil skips them).
type paramSink struct {
	boundary int
	po       *analysis.ParamObserver
	co       *analysis.CritObserver
	ts       *obs.TailSampler
	params   []Params
	seqs     []int // issue sequence of each params entry
}

// Consume implements emulator.RecordSink.
func (k *paramSink) Consume(rec *emulator.Record) {
	if rec.Failed || len(rec.Events) == 0 {
		return
	}
	p, err := analysis.ExtractRecord(*rec, k.boundary)
	if err != nil {
		return
	}
	k.params = append(k.params, p)
	k.seqs = append(k.seqs, rec.Seq)
	k.po.Observe(p)
	// Critical-path attribution annotates the span before the tail
	// sampler can retain it, so exemplars carry the cp:* waterfall.
	if k.co != nil {
		if a, ok := analysis.AttributeRecord(rec, k.boundary); ok {
			k.co.Observe(a, rec.TrueFetch)
		}
	}
	if k.ts != nil && rec.Span != nil {
		analysis.SampleTail(k.ts, rec, p, DefaultBoundTolerance)
	}
}

// inIssueOrder returns the parameters sorted by their records' issue
// sequence — the order analysis.ExtractDataset would produce. A
// streamed Experiment B consumes in completion order; restoring issue
// order keeps every order-sensitive float sum downstream unchanged.
func (k *paramSink) inIssueOrder() []Params {
	idx := make([]int, len(k.params))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return k.seqs[idx[a]] < k.seqs[idx[b]] })
	out := make([]Params, len(idx))
	for i, j := range idx {
		out[i] = k.params[j]
	}
	return out
}

// expABatches resolves the node-batch count the sharded campaign will
// use — the same clamping emulator.RunShardedA applies.
func (s *Study) expABatches() int {
	k := s.cfg.NodeBatches
	if k <= 0 {
		k = emulator.DefaultNodeBatches
	}
	if k > s.cfg.Nodes {
		k = s.cfg.Nodes
	}
	if k < 1 {
		k = 1
	}
	return k
}

// experimentA runs (or returns the cached) default-FE experiment for a
// service: the fleet split into node batches (each an independent
// simulated world, see emulator.RunShardedA), merged in batch order.
// When the study is observed, each batch records into its own observer
// and the registries merge here — also in batch order — then the
// session parameters and tail exemplars are fed from the merged
// dataset, so the observed view is identical for any worker count.
//
// With StreamRecords set the campaign instead streams: each batch's
// records fold into a per-batch paramSink (parameters, sketches, tail
// offers) and the batch dataset is dropped. Batch accumulators merge in
// batch order, which is exactly equivalent to the serial feed — same
// parameters, same exemplar selection — so figure output is identical;
// only the expAResult's dataset is nil (no figure consumes it).
func (s *Study) experimentA(cfg DeploymentConfig) (*expAResult, error) {
	if r, ok := s.expA[cfg.Name]; ok {
		return r, nil
	}
	// The boundary probe is an independent world; streaming needs it
	// before the campaign (records are measured as they are dropped).
	boundary, err := s.boundaryFor(cfg)
	if err != nil {
		return nil, err
	}
	sopts := emulator.ShardedAOptions{
		SimSeed:    s.cfg.Seed + 11,
		Deployment: cfg,
		Runner:     emulator.Options{Nodes: s.cfg.Nodes, FleetSeed: s.cfg.Seed + 12},
		A: emulator.AOptions{
			QueriesPerNode: s.cfg.QueriesPerNodeA,
			Interval:       s.cfg.IntervalA,
			QuerySeed:      s.cfg.Seed + 13,
		},
		Batches: s.cfg.NodeBatches,
		Workers: s.cfg.Workers,
		Runtime: s.rt,
	}
	// batchObsSlots pairs each batch's observer with its sink: Observe
	// runs at batch start, Sink after the batch's records exist, both on
	// the batch's own goroutine, and each batch touches only its slot.
	var batchObsSlots []*obs.Observer
	if s.obsv != nil {
		if s.cfg.StreamRecords {
			batchObsSlots = make([]*obs.Observer, s.expABatches())
		}
		sopts.Observe = func(b shard.Batch) *obs.Observer {
			o := obs.NewTailObserver(s.obsv.Tail.Config())
			if batchObsSlots != nil {
				batchObsSlots[b.Index] = o
			}
			return o
		}
	}
	if s.cfg.StreamRecords {
		sopts.Sink = func(b shard.Batch) emulator.RecordSink {
			k := &paramSink{boundary: boundary}
			if batchObsSlots != nil {
				o := batchObsSlots[b.Index]
				k.po = analysis.NewParamObserver(o.Registry(), cfg.Name)
				k.co = analysis.NewCritObserver(o.Registry(), cfg.Name)
				k.ts = o.Tail
			}
			return k
		}
	}
	ds, batchObs, batchSinks, err := emulator.RunShardedA(sopts)
	if err != nil {
		return nil, err
	}
	var params []Params
	if s.cfg.StreamRecords {
		// Concatenating per-batch accumulators in batch order replays
		// the serial record order exactly.
		for _, bs := range batchSinks {
			params = append(params, bs.(*paramSink).params...)
		}
	} else {
		params = analysis.ExtractDataset(ds, boundary)
	}
	if s.obsv != nil {
		for _, o := range batchObs {
			if err := s.obsv.Reg.Merge(o.Registry()); err != nil {
				return nil, err
			}
		}
		if s.cfg.StreamRecords {
			// Batch tail samplers were fed during the run; fold them
			// into the study sampler in batch order (equivalent to the
			// serial Offer sequence — see obs.MergeTailSamplers).
			samplers := make([]*obs.TailSampler, 0, len(batchObs)+1)
			samplers = append(samplers, s.obsv.Tail)
			for _, o := range batchObs {
				samplers = append(samplers, o.Tail)
			}
			s.obsv.Tail = obs.MergeTailSamplers(samplers...)
		} else {
			analysis.ObserveParams(s.obsv.Registry(), cfg.Name, params)
			// Attribute (and annotate spans) before tail sampling, so
			// retained exemplars carry the cp:* waterfall.
			analysis.ObserveCritPath(s.obsv.Registry(), cfg.Name, ds, boundary)
			analysis.SampleTails(s.obsv.TailSampler(), ds, boundary, DefaultBoundTolerance)
		}
	}
	res := &expAResult{
		ds:       ds,
		boundary: boundary,
		params:   params,
		nodes:    analysis.PerNode(params),
	}
	s.expA[cfg.Name] = res
	return res, nil
}

// --- Figure 3 ---

// Fig3Data holds the keyword-class effect series (milliseconds, moving
// medians) for one service.
type Fig3Data struct {
	Service  string
	Classes  []QueryClass
	Tstatic  map[QueryClass][]float64
	Tdynamic map[QueryClass][]float64
}

// Fig3 reproduces Figure 3: Tstatic and Tdynamic across sequential
// samples for four keyword classes against one fixed Bing-like FE.
func (s *Study) Fig3() (*Fig3Data, error) {
	cfg := BingLike(s.cfg.Seed + 1)
	runner, err := emulator.New(s.cfg.Seed+21, cfg,
		emulator.Options{Nodes: 8, FleetSeed: s.cfg.Seed + 22, Runtime: s.rt})
	if err != nil {
		return nil, err
	}
	fe := runner.Dep.DefaultFE(runner.Fleet.Nodes[0].Point)
	sweeps := runner.KeywordSweep(fe, runner.Fleet.Nodes[0],
		s.cfg.Fig3Samples, 2*time.Second, s.cfg.Seed+23)

	// Boundary from cross-class payloads.
	var all []*Dataset
	for _, ds := range sweeps {
		all = append(all, ds)
	}
	merged := &emulator.Dataset{Service: cfg.Name, Experiment: "fig3"}
	for _, ds := range all {
		merged.Records = append(merged.Records, ds.Records...)
	}
	boundary := analysis.BoundaryFromDataset(merged)
	if boundary <= 0 {
		return nil, fmt.Errorf("fesplit: fig3 boundary not found")
	}

	out := &Fig3Data{
		Service:  cfg.Name,
		Classes:  workload.Classes(),
		Tstatic:  map[QueryClass][]float64{},
		Tdynamic: map[QueryClass][]float64{},
	}
	for _, class := range out.Classes {
		params := analysis.ExtractDataset(sweeps[class], boundary)
		var st, dy []float64
		for _, p := range params {
			st = append(st, float64(p.Tstatic)/float64(time.Millisecond))
			dy = append(dy, float64(p.Tdynamic)/float64(time.Millisecond))
		}
		out.Tstatic[class] = stats.MovingMedian(st, s.cfg.Fig3Window)
		out.Tdynamic[class] = stats.MovingMedian(dy, s.cfg.Fig3Window)
	}
	return out, nil
}

// --- Figure 4 ---

// Fig4Event is one packet event on a client timeline.
type Fig4Event struct {
	AtMS    float64
	Send    bool
	Payload int
	Flags   string
}

// Fig4Row is one client's timeline.
type Fig4Row struct {
	RTTMS  float64
	Events []Fig4Event
}

// Fig4 reproduces Figure 4: packet-event timelines of one query from
// five clients at increasing RTTs to the same Bing-like FE, showing the
// static and dynamic clusters merging as RTT grows.
func (s *Study) Fig4() ([]Fig4Row, error) {
	// The paper's five sample RTTs.
	rtts := []time.Duration{
		10656 * time.Microsecond,
		30003 * time.Microsecond,
		86647 * time.Microsecond,
		160380 * time.Microsecond,
		243250 * time.Microsecond,
	}
	sim := simnet.New(s.cfg.Seed + 31)
	net := simnet.NewNetwork(sim)
	if s.rt != nil {
		sim.SetRuntime(s.rt)
		net.SetRuntime(s.rt)
	}
	spec := workload.DefaultContentSpec("bing-like")
	if _, err := backend.New(net, "be", geo.Site{Name: "be"}, spec,
		backend.BingCostModel(), backend.Options{}, s.cfg.Seed+32); err != nil {
		return nil, err
	}
	fe, err := frontend.New(net, frontend.Config{
		Host: "fe", BEHost: "be", Static: spec.StaticPrefix(),
		Load: frontend.SharedCDNLoadModel(), Seed: s.cfg.Seed + 33,
	})
	if err != nil {
		return nil, err
	}
	net.SetLink("fe", "be", simnet.PathParams{Delay: 12 * time.Millisecond})
	fe.Prewarm(len(rtts))
	sim.RunFor(time.Second)

	gen := workload.NewGenerator(s.cfg.Seed + 34)
	q := gen.Query(workload.ClassGranular)
	rows := make([]Fig4Row, len(rtts))
	recs := make([]*capture.Recorder, len(rtts))
	starts := make([]time.Duration, len(rtts))
	for i, rtt := range rtts {
		host := simnet.HostID(fmt.Sprintf("fig4-client-%d", i))
		net.SetLink(host, "fe", simnet.PathParams{Delay: rtt / 2})
		ep := tcpsim.NewEndpoint(net, host, tcpsim.Config{})
		rec := capture.NewRecorder(string(host))
		ep.Tap = rec.Tap
		recs[i] = rec
		starts[i] = sim.Now()
		httpsim.Get(ep, "fe", frontend.FEPort, httpsim.NewGet("bing-like", q.Path()),
			httpsim.ResponseCallbacks{})
	}
	sim.Run()
	for i, rec := range recs {
		row := Fig4Row{RTTMS: float64(rtts[i]) / float64(time.Millisecond)}
		for _, ev := range rec.Trace().Events {
			row.Events = append(row.Events, Fig4Event{
				AtMS:    float64(ev.Time-starts[i]) / float64(time.Millisecond),
				Send:    ev.Dir == tcpsim.DirSend,
				Payload: len(ev.Seg.Data),
				Flags:   ev.Seg.Flags.String(),
			})
		}
		rows[i] = row
	}
	return rows, nil
}

// CaptureSession runs one query from a client at the given RTT against
// a Bing-like FE and returns the client's packet trace — the library's
// "tcpdump one session" facility, usable with capture.Decode tooling.
func (s *Study) CaptureSession(rtt time.Duration) (*Trace, error) {
	sim := simnet.New(s.cfg.Seed + 35)
	net := simnet.NewNetwork(sim)
	if s.rt != nil {
		sim.SetRuntime(s.rt)
		net.SetRuntime(s.rt)
	}
	spec := workload.DefaultContentSpec("bing-like")
	if _, err := backend.New(net, "be", geo.Site{Name: "be"}, spec,
		backend.BingCostModel(), backend.Options{}, s.cfg.Seed+36); err != nil {
		return nil, err
	}
	fe, err := frontend.New(net, frontend.Config{
		Host: "fe", BEHost: "be", Static: spec.StaticPrefix(),
		Load: frontend.SharedCDNLoadModel(), Seed: s.cfg.Seed + 37,
	})
	if err != nil {
		return nil, err
	}
	net.SetLink("fe", "be", simnet.PathParams{Delay: 12 * time.Millisecond})
	fe.Prewarm(1)
	sim.RunFor(time.Second)
	net.SetLink("client", "fe", simnet.PathParams{Delay: rtt / 2})
	ep := tcpsim.NewEndpoint(net, "client", tcpsim.Config{})
	rec := capture.NewRecorder("client")
	ep.Tap = rec.Tap
	gen := workload.NewGenerator(s.cfg.Seed + 38)
	q := gen.Query(workload.ClassGranular)
	httpsim.Get(ep, "fe", frontend.FEPort, httpsim.NewGet("bing-like", q.Path()),
		httpsim.ResponseCallbacks{})
	sim.Run()
	return rec.Trace(), nil
}

// --- Figure 5 ---

// Fig5Data holds the fixed-FE per-node parameter distributions for one
// service, plus the Tdelta threshold and the inference-bounds check
// against ground truth.
type Fig5Data struct {
	Service     string
	FixedFE     string
	Nodes       []NodeSummary
	ThresholdMS float64
	HasThresh   bool
	// Inference validation (simulation-only ground truth).
	BoundLoMS, TruthMS, BoundHiMS float64
	BoundsOK                      bool
}

// Fig5 reproduces Figure 5 for both services: Tstatic, Tdynamic and
// Tdelta versus RTT with one fixed FE per service.
func (s *Study) Fig5() ([]*Fig5Data, error) {
	var out []*Fig5Data
	for _, cfg := range s.serviceConfigs() {
		d, err := s.fig5For(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// fig5For runs the fixed-FE campaign for one service — the per-service
// cell of Figure 5, shared by the serial method and the parallel cell
// matrix.
func (s *Study) fig5For(cfg DeploymentConfig) (*Fig5Data, error) {
	boundary, err := s.boundaryFor(cfg)
	if err != nil {
		return nil, err
	}
	// The fixed-FE campaign is the study's largest (250 × 720
	// sessions at paper scale). It streams: each session folds into
	// the sink as its connection closes, so the world holds only the
	// sessions in flight, never the whole campaign's packet trace. The
	// sink restores issue order, so the parameters — and every sum
	// over them — are those of the accumulated dataset. Payloads are
	// snapped at capture time; the boundary probe above already ran
	// with full payloads.
	runner, err := emulator.New(s.cfg.Seed+41, cfg, emulator.Options{
		Nodes: s.cfg.Nodes, FleetSeed: s.cfg.Seed + 42, SnapPayloads: true,
		Runtime: s.rt,
	})
	if err != nil {
		return nil, err
	}
	fe := runner.Dep.FEByHost(simnet.HostID(cfg.Name + "-fe-metro-chicago"))
	if fe == nil {
		fe = runner.Dep.FEs[0]
	}
	sink := &paramSink{boundary: boundary}
	ds, err := runner.RunExperimentB(emulator.BOptions{
		FE: fe, Repeats: s.cfg.RepeatsB, Interval: s.cfg.IntervalB,
		QuerySeed: s.cfg.Seed + 43, Sink: sink,
	})
	if err != nil {
		return nil, err
	}
	params := sink.inIssueOrder()
	analysis.ObserveParams(s.obsv.Registry(), "fig5/"+cfg.Name, params)
	nodes := analysis.PerNode(params)
	thr, hasThr := analysis.DeltaThreshold(nodes, 2*time.Millisecond)
	lo, truth, hi, ok := analysis.ValidateBounds(params, ds.FEFetchTimes[fe.Host()])
	return &Fig5Data{
		Service:     cfg.Name,
		FixedFE:     string(fe.Host()),
		Nodes:       nodes,
		ThresholdMS: float64(thr) / float64(time.Millisecond),
		HasThresh:   hasThr,
		BoundLoMS:   lo, TruthMS: truth, BoundHiMS: hi, BoundsOK: ok,
	}, nil
}

// --- Figure 6 ---

// Fig6Data is the RTT CDF of nodes to their default FE for one service.
type Fig6Data struct {
	Service string
	// RTTsMS are the per-node median RTTs.
	RTTsMS []float64
	// FracUnder20ms is the paper's headline comparison point.
	FracUnder20ms float64
}

// Fig6 reproduces Figure 6: the CDF of client→default-FE RTTs for both
// services.
func (s *Study) Fig6() ([]*Fig6Data, error) {
	var out []*Fig6Data
	for _, cfg := range s.serviceConfigs() {
		res, err := s.experimentA(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, fig6From(cfg, res))
	}
	return out, nil
}

// fig6From derives the Figure-6 series from a service's default-FE
// campaign — a pure transform shared by Fig6 and the cell matrix.
func fig6From(cfg DeploymentConfig, res *expAResult) *Fig6Data {
	var rtts []float64
	for _, n := range res.nodes {
		rtts = append(rtts, float64(n.RTT)/float64(time.Millisecond))
	}
	cdf := stats.NewECDF(rtts)
	return &Fig6Data{
		Service:       cfg.Name,
		RTTsMS:        rtts,
		FracUnder20ms: cdf.At(20),
	}
}

// --- Figure 7 ---

// Fig7Data holds default-FE Tstatic/Tdynamic distributions per node.
type Fig7Data struct {
	Service string
	Nodes   []NodeSummary
	// Medians and spread across nodes (ms) for the service-level
	// comparison.
	MedStaticMS, MedDynamicMS float64
	IQRStaticMS, IQRDynMS     float64
}

// Fig7 reproduces Figure 7: Tstatic and Tdynamic versus RTT with each
// node using its default FE, for both services.
func (s *Study) Fig7() ([]*Fig7Data, error) {
	var out []*Fig7Data
	for _, cfg := range s.serviceConfigs() {
		res, err := s.experimentA(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, fig7From(cfg, res))
	}
	return out, nil
}

// fig7From derives the Figure-7 distributions from a service's
// default-FE campaign.
func fig7From(cfg DeploymentConfig, res *expAResult) *Fig7Data {
	var st, dy []float64
	for _, n := range res.nodes {
		st = append(st, float64(n.MedStatic)/float64(time.Millisecond))
		dy = append(dy, float64(n.MedDynamic)/float64(time.Millisecond))
	}
	sSum, dSum := stats.Summarize(st), stats.Summarize(dy)
	return &Fig7Data{
		Service:      cfg.Name,
		Nodes:        res.nodes,
		MedStaticMS:  sSum.Median,
		MedDynamicMS: dSum.Median,
		IQRStaticMS:  sSum.IQR(),
		IQRDynMS:     dSum.IQR(),
	}
}

// --- Figure 8 ---

// Fig8Data holds per-node overall-delay box plots for one service.
type Fig8Data struct {
	Service string
	Nodes   []string
	Boxes   []BoxPlot
	// MedOverallMS is the service-level median of node medians.
	MedOverallMS float64
	// SpreadMS is the median node IQR — the variability comparison.
	SpreadMS float64
}

// Fig8 reproduces Figure 8: per-node box plots of the overall
// user-perceived delay for both services.
func (s *Study) Fig8() ([]*Fig8Data, error) {
	var out []*Fig8Data
	for _, cfg := range s.serviceConfigs() {
		res, err := s.experimentA(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, fig8From(cfg, res))
	}
	return out, nil
}

// fig8From derives the Figure-8 box plots from a service's default-FE
// campaign.
func fig8From(cfg DeploymentConfig, res *expAResult) *Fig8Data {
	d := &Fig8Data{Service: cfg.Name}
	var meds, iqrs []float64
	for _, n := range res.nodes {
		d.Nodes = append(d.Nodes, string(n.Node))
		bp := n.OverallDist
		// Convert to milliseconds for reporting.
		d.Boxes = append(d.Boxes, BoxPlot{
			Min: bp.Min / 1e6, Q1: bp.Q1 / 1e6, Median: bp.Median / 1e6,
			Q3: bp.Q3 / 1e6, Max: bp.Max / 1e6,
			WhiskerLow: bp.WhiskerLow / 1e6, WhiskerHigh: bp.WhiskerHigh / 1e6,
		})
		meds = append(meds, bp.Median/1e6)
		iqrs = append(iqrs, (bp.Q3-bp.Q1)/1e6)
	}
	d.MedOverallMS = stats.Median(meds)
	d.SpreadMS = stats.Median(iqrs)
	return d
}

// --- Figure 9 ---

// Fig9Data is the fetch-time factoring for one service.
type Fig9Data struct {
	Service string
	BE      string
	Result  FactorResult
}

// Fig9 reproduces Figure 9: regress Tdynamic (≈ Tfetch at small RTT)
// against FE↔BE distance for a single data center per service — Bing
// Virginia and Google Lenoir, as in the paper.
func (s *Study) Fig9() ([]*Fig9Data, error) {
	// The paper picks one data center per service and "consider[s] the
	// geographically closest FE servers" to it. The Google-like fleet
	// used elsewhere is deliberately sparse (Figure-6 calibration),
	// which would leave this regression only ~3 points; the real 2011
	// Google ran far more FE sites than our sparse 5, so the Fig-9
	// probe densifies the google-like FE placement to every US metro.
	// Placement density does not change what each FE measures — its
	// own distance to the data center versus its local clients'
	// Tdynamic — it only adds regression points.
	var out []*Fig9Data
	for _, setup := range s.fig9Setups() {
		d, err := s.fig9For(setup)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// fig9Setup is one Figure-9 probe: a single-BE deployment and its data
// center.
type fig9Setup struct {
	cfg DeploymentConfig
	be  string
}

// fig9Setups returns the two single-data-center probes in canonical
// order: Bing Virginia, then the FE-densified Google Lenoir.
func (s *Study) fig9Setups() []fig9Setup {
	googleProbe := cdn.SingleBE(GoogleLike(s.cfg.Seed+2), "google-be-lenoir")
	googleProbe.FESites = geo.USMetros()
	return []fig9Setup{
		{cdn.SingleBE(BingLike(s.cfg.Seed+1), "bing-be-virginia"), "bing-be-virginia"},
		{googleProbe, "google-be-lenoir"},
	}
}

// fig9For runs one service's fetch-time factoring — the per-service
// cell of Figure 9.
func (s *Study) fig9For(setup fig9Setup) (*Fig9Data, error) {
	runner, err := emulator.New(s.cfg.Seed+51, setup.cfg,
		emulator.Options{Nodes: s.cfg.Nodes, FleetSeed: s.cfg.Seed + 52, Runtime: s.rt})
	if err != nil {
		return nil, err
	}
	ds := runner.RunExperimentA(emulator.AOptions{
		QueriesPerNode: s.cfg.QueriesPerNodeA,
		Interval:       s.cfg.IntervalA,
		QuerySeed:      s.cfg.Seed + 53,
	})
	params := analysis.ExtractDataset(ds, 0)
	analysis.ObserveParams(s.obsv.Registry(), "fig9/"+setup.cfg.Name, params)
	pts := analysis.Fig9Points(params, runner.Dep.FEBEDistances(), s.cfg.Fig9RTTCap)
	if s.cfg.Fig9MileCap > 0 {
		kept := pts[:0]
		for _, p := range pts {
			if p.Miles <= s.cfg.Fig9MileCap {
				kept = append(kept, p)
			}
		}
		pts = kept
	}
	return &Fig9Data{
		Service: setup.cfg.Name,
		BE:      setup.be,
		Result:  analysis.FactorFetchCI(pts, 1000, s.cfg.Seed+54),
	}, nil
}

// --- Section 3: caching detection ---

// CachingData is the caching-probe outcome with its positive control.
type CachingData struct {
	Service string
	// Deployed is the verdict on the deployed (cache-less) service —
	// the paper finds no caching.
	Deployed CacheVerdict
	// Control is the verdict with a result cache deliberately enabled,
	// demonstrating the methodology detects one when present.
	Control CacheVerdict
}

// Caching reproduces the Section-3 experiment on the Google-like
// service, plus a cache-enabled positive control.
func (s *Study) Caching() (*CachingData, error) {
	deployed, err := s.cachingRun(false)
	if err != nil {
		return nil, err
	}
	control, err := s.cachingRun(true)
	if err != nil {
		return nil, err
	}
	return &CachingData{Service: "google-like", Deployed: deployed, Control: control}, nil
}

// cachingRun executes one caching-probe variant — deployed (cache off)
// or positive control (cache on). The two variants are independent
// worlds, which is what lets the cell matrix run them concurrently.
func (s *Study) cachingRun(cache bool) (CacheVerdict, error) {
	cfg := GoogleLike(s.cfg.Seed + 2)
	if cache {
		cfg.BEOptions = backend.Options{CacheResults: true, CacheHitTime: 2 * time.Millisecond}
	}
	runner, err := emulator.New(s.cfg.Seed+61, cfg,
		emulator.Options{Nodes: min(s.cfg.Nodes, 40), FleetSeed: s.cfg.Seed + 62, Runtime: s.rt})
	if err != nil {
		return CacheVerdict{}, err
	}
	fe := runner.Dep.FEs[0]
	same, distinct := runner.CachingProbe(fe, s.cfg.CachingRepeats,
		2*time.Second, s.cfg.Seed+63)
	boundary := analysis.BoundaryFromDataset(distinct)
	if boundary <= 0 {
		return CacheVerdict{}, fmt.Errorf("fesplit: caching probe boundary not found")
	}
	nearOnly := func(ps []Params) []Params {
		out := ps[:0:0]
		for _, p := range ps {
			if p.RTT <= 25*time.Millisecond {
				out = append(out, p)
			}
		}
		return out
	}
	sp := nearOnly(analysis.ExtractDataset(same, boundary))
	dp := nearOnly(analysis.ExtractDataset(distinct, boundary))
	if len(sp) == 0 || len(dp) == 0 {
		return CacheVerdict{}, fmt.Errorf("fesplit: caching probe found no near sessions")
	}
	return analysis.DetectCaching(sp, dp, 0.5), nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
