// Package emulator is the measurement harness: the stand-in for the
// paper's "in-house user search query emulator" deployed on PlanetLab.
// It drives a vantage fleet against a deployment, captures client-side
// packet traces (tcpdump style), and assembles datasets:
//
//   - Experiment A ("datasets A"): every node queries its default
//     (DNS-nearest) FE server periodically.
//   - Experiment B ("datasets B"): every node repeatedly queries one
//     fixed FE server.
//   - CachingProbe: the Section-3 methodology for detecting FE result
//     caching — same-query vs distinct-query Tdynamic distributions.
package emulator

import (
	"fmt"
	"strconv"
	"time"

	"fesplit/internal/capture"
	"fesplit/internal/cdn"
	"fesplit/internal/frontend"
	"fesplit/internal/geo"
	"fesplit/internal/httpsim"
	"fesplit/internal/obs"
	rt "fesplit/internal/obs/runtime"
	"fesplit/internal/simnet"
	"fesplit/internal/tcpsim"
	"fesplit/internal/trace"
	"fesplit/internal/vantage"
	"fesplit/internal/workload"
)

// Record is one completed (or failed) search query issued by a node.
type Record struct {
	Node     simnet.HostID
	FE       simnet.HostID
	Query    workload.Query
	IssuedAt time.Duration
	DoneAt   time.Duration
	// DNSTime is the resolution cost paid before the TCP connection
	// opened (zero on client-cache hits, or when no resolver is
	// configured).
	DNSTime time.Duration
	Status  int
	BodyLen int
	Body    []byte
	Failed  bool
	// Seq is the record's issue sequence within the experiment run
	// that produced it — its index in that run's Dataset.Records — and
	// the key that restores issue order when a streamed campaign hands
	// records to a sink in completion order.
	Seq int
	// Key locates the session's packet events inside the node's trace.
	Key capture.ConnKey
	// Events is the session's client-side packet event list, attached
	// by Finalize.
	Events []capture.Event
	// TrueFetch is the FE-side ground-truth fetch time of this query
	// (GET arrival at the FE to the complete dynamic portion from the
	// BE), joined from the FE's fetch log by client host and port. Zero
	// unless the runner was built with an observer carrying a tracer.
	TrueFetch time.Duration
	// Span is the query's assembled causal span tree (client-side
	// phases plus FE-side ground truth). Nil unless span tracing was
	// enabled via Options.Obs.
	Span *obs.Span
}

// OverallDelay is the user-perceived response time: first SYN to last
// payload byte (paper Figure 8's quantity).
func (r Record) OverallDelay() time.Duration { return r.DoneAt - r.IssuedAt }

// RecordSink consumes finalized records one at a time — the streaming
// alternative to accumulating a Dataset. A sharded campaign built with
// a sink folds each record into the caller's mergeable accumulators
// (parameter extraction, quantile sketches, tail sampling) and then
// drops it, so the campaign's memory stays bounded by one batch world
// instead of growing with the full record count. See
// ShardedAOptions.Sink.
//
// A sharded campaign calls Consume in record order (batch order, then
// per-batch simulation order), from the batch's worker goroutine. A
// streamed Experiment B (BOptions.Sink) calls it in completion order,
// from inside the simulation, as each session's connection terminates;
// Record.Seq gives the issue order. The record — its Events, Span and
// Body included — must not be retained beyond the call; copy what you
// keep.
type RecordSink interface {
	Consume(rec *Record)
}

// Dataset is the output of one experiment.
type Dataset struct {
	Service    string
	Experiment string
	Records    []Record
	// Traces holds each node's full packet trace.
	Traces map[simnet.HostID]*capture.Trace
	// FEFetchTimes is the per-FE ground-truth fetch-time series —
	// unobservable in the real study, recorded here to validate the
	// inference framework.
	FEFetchTimes map[simnet.HostID][]time.Duration

	// stream is set when the dataset streams its records into a sink
	// instead of accumulating them (BOptions.Sink).
	stream *recordStream
}

// recordStream is the in-flight state of a streamed dataset: records
// issued but not yet folded, as a window over issue sequence numbers.
// A record leaves the window when its connection terminates; the window
// then advances past every folded head, so it spans only from the
// oldest unfinished session to the newest issued one.
type recordStream struct {
	sink   RecordSink
	window []*Record // window[i] holds Seq base+i; nil once folded
	base   int
}

// add assigns rec the next issue sequence and stores it, returning the
// sequence number.
func (ds *Dataset) add(rec Record) int {
	st := ds.stream
	if st == nil {
		rec.Seq = len(ds.Records)
		ds.Records = append(ds.Records, rec)
		return rec.Seq
	}
	rec.Seq = st.base + len(st.window)
	st.window = append(st.window, &rec)
	return rec.Seq
}

// record returns the stored record of an issue sequence number.
func (ds *Dataset) record(seq int) *Record {
	if st := ds.stream; st != nil {
		return st.window[seq-st.base]
	}
	return &ds.Records[seq]
}

// release removes a folded record from the stream window and advances
// the window past folded heads.
func (st *recordStream) release(seq int) {
	st.window[seq-st.base] = nil
	n := 0
	for n < len(st.window) && st.window[n] == nil {
		n++
	}
	if n > 0 {
		st.window = append(st.window[:0], st.window[n:]...)
		st.base += n
	}
}

// Runner owns one simulated world: a deployment, a vantage fleet, and a
// client TCP endpoint + packet recorder per node.
type Runner struct {
	Sim   *simnet.Sim
	Net   *simnet.Network
	Dep   *cdn.Deployment
	Fleet *vantage.Fleet

	eps  map[simnet.HostID]*tcpsim.Endpoint
	recs map[simnet.HostID]*capture.Recorder

	clientTCP  tcpsim.Config
	keepBodies bool
	evScratch  []capture.Event

	obsv       *obs.Observer
	simMetrics *simnet.Metrics
	rt         *rt.Engine
}

// Options configures a Runner.
type Options struct {
	// Nodes is the vantage fleet size (default 250).
	Nodes int
	// FleetSeed places the fleet; keep it equal across services so
	// per-node comparisons (Figure 8) line up.
	FleetSeed int64
	// Access selects the fleet's last-mile profile (default campus).
	Access vantage.AccessProfile
	// ClientTCP overrides the client endpoints' TCP configuration.
	ClientTCP tcpsim.Config
	// SnapPayloads drops payload bytes at capture time (tcpdump
	// snaplen): timeline analysis still works, content analysis does
	// not; derive the content boundary from a small unsnapped probe run
	// instead. An accumulating campaign keeps every captured segment
	// until finalize, so at paper scale (250 nodes × 720 repeats) it
	// needs snapping to fit in memory. A streamed Experiment B
	// (BOptions.Sink) holds only the sessions in flight; there
	// snapping just trims the per-session payload copies.
	SnapPayloads bool
	// KeepBodies retains each response body on its Record. Off by
	// default — bodies duplicate what the traces already carry.
	KeepBodies bool
	// Obs, when non-nil, wires the whole world into an observability
	// layer: simulator and network counters, a fleet-wide TCP stack
	// bundle, per-FE/BE labeled metrics, and (when Obs carries a span
	// tracer) one causal span tree per completed query, assembled at
	// finalize time. Nil costs nothing on the hot paths.
	Obs *obs.Observer
	// Runtime, when non-nil, publishes engine liveness (events/sec,
	// sim-time ratio, fast-path activity, heap watermark) to the
	// wall-clock telemetry hub. Unlike Obs it is shared across
	// concurrent worlds and never touches the deterministic exports.
	Runtime *rt.Engine
}

func (o Options) withDefaults() Options {
	if o.Nodes <= 0 {
		o.Nodes = 250
	}
	if o.Access == (vantage.AccessProfile{}) {
		o.Access = vantage.CampusProfile()
	}
	return o
}

// New builds a Runner: simulator, network, deployment and fleet.
func New(simSeed int64, depCfg cdn.Config, opts Options) (*Runner, error) {
	opts = opts.withDefaults()
	sim := simnet.New(simSeed)
	net := simnet.NewNetwork(sim)
	dep, err := cdn.Build(net, depCfg)
	if err != nil {
		return nil, err
	}
	fleet := vantage.NewFleet(opts.Nodes, geo.WorldMetros(), opts.Access, opts.FleetSeed)
	fleet.Wire(dep)
	r := &Runner{
		Sim:        sim,
		Net:        net,
		Dep:        dep,
		Fleet:      fleet,
		eps:        make(map[simnet.HostID]*tcpsim.Endpoint),
		recs:       make(map[simnet.HostID]*capture.Recorder),
		clientTCP:  opts.ClientTCP,
		keepBodies: opts.KeepBodies,
		rt:         opts.Runtime,
	}
	if opts.Runtime != nil {
		sim.SetRuntime(opts.Runtime)
		net.SetRuntime(opts.Runtime)
	}
	var stack *tcpsim.StackMetrics
	if opts.Obs != nil {
		r.obsv = opts.Obs
		reg := opts.Obs.Registry()
		r.simMetrics = simnet.NewMetrics(reg)
		sim.SetMetrics(r.simMetrics)
		stack = tcpsim.NewStackMetrics(reg)
		for _, fe := range dep.FEs {
			fe.Endpoint().Metrics = stack
			fe.StartObserving(opts.Obs)
		}
		for _, dc := range dep.BEs {
			dc.Endpoint().Metrics = stack
			dc.StartObserving(opts.Obs)
		}
	}
	for _, n := range fleet.Nodes {
		ep := tcpsim.NewEndpoint(net, n.Host, r.clientTCP)
		ep.Metrics = stack
		rec := capture.NewRecorder(string(n.Host))
		rec.SnapPayload = opts.SnapPayloads
		ep.Tap = rec.Tap
		r.eps[n.Host] = ep
		r.recs[n.Host] = rec
	}
	return r, nil
}

// Endpoint returns the client endpoint of a node.
func (r *Runner) Endpoint(node simnet.HostID) *tcpsim.Endpoint { return r.eps[node] }

// NearestNode returns the fleet node with the smallest RTT to the given
// FE — the right vantage for content-boundary probes, whose static
// portion must drain before the dynamic portion arrives.
func (r *Runner) NearestNode(fe *frontend.Server) vantage.Node {
	best := r.Fleet.Nodes[0]
	for _, n := range r.Fleet.Nodes[1:] {
		if r.Net.RTT(n.Host, fe.Host()) < r.Net.RTT(best.Host, fe.Host()) {
			best = n
		}
	}
	return best
}

// newDataset allocates a dataset shell for this runner.
func (r *Runner) newDataset(experiment string) *Dataset {
	return &Dataset{
		Service:      r.Dep.Name,
		Experiment:   experiment,
		Traces:       make(map[simnet.HostID]*capture.Trace),
		FEFetchTimes: make(map[simnet.HostID][]time.Duration),
	}
}

// issueAt schedules one query from node to fe at virtual time at,
// appending a Record to ds when the response completes.
func (r *Runner) issueAt(ds *Dataset, at time.Duration, node vantage.Node,
	fe *frontend.Server, q workload.Query) {
	r.issueAtDNS(ds, at, node, fe, q, 0)
}

// issueAtDNS is issueAt with a DNS resolution cost recorded on the
// record (the query was delayed by dnsTime before `at`). A streamed
// dataset differs only in its completion hook: when the query's
// connection terminates, the session is folded into the sink.
func (r *Runner) issueAtDNS(ds *Dataset, at time.Duration, node vantage.Node,
	fe *frontend.Server, q workload.Query, dnsTime time.Duration) {
	r.Sim.ScheduleAt(at, func() {
		seq := ds.add(Record{
			Node:     node.Host,
			FE:       fe.Host(),
			Query:    q,
			IssuedAt: r.Sim.Now(),
			DNSTime:  dnsTime,
			Failed:   true, // cleared on completion
		})
		req := httpsim.NewGet(r.Dep.Name, q.Path())
		conn := httpsim.Get(r.eps[node.Host], fe.Host(), frontend.FEPort, req,
			httpsim.ResponseCallbacks{
				OnDone: func(resp *httpsim.Response) {
					rr := ds.record(seq)
					rr.Failed = false
					rr.DoneAt = r.Sim.Now()
					rr.Status = resp.Status
					rr.BodyLen = len(resp.Body)
					if r.keepBodies {
						rr.Body = resp.Body
					}
				},
			})
		ds.record(seq).Key = capture.ConnKey{
			Remote:     string(fe.Host()),
			LocalPort:  conn.LocalPort(),
			RemotePort: frontend.FEPort,
		}
		if ds.stream != nil {
			// Fold at teardown, not at OnDone: under loss the server can
			// still retransmit data after the response completed, and
			// the accumulated trace would count those segments.
			conn.OnFinish = func() { r.fold(ds, seq) }
		}
	})
}

// fold hands one finished session of a streamed dataset to its sink:
// the session's events are carved out of the node's recorder (which
// keeps only in-flight sessions), the record is consumed, and both are
// dropped.
func (r *Runner) fold(ds *Dataset, seq int) {
	rr := ds.record(seq)
	r.evScratch = r.recs[rr.Node].Take(rr.Key, r.evScratch[:0])
	rr.Events = r.evScratch
	ds.stream.sink.Consume(rr)
	r.rt.NoteRecord()
	ds.stream.release(seq)
}

// finalize runs the simulator to completion and attaches traces, session
// events and FE ground truth to the dataset. A streamed dataset instead
// folds the sessions that never terminated, in issue order, and keeps
// only the FE ground truth.
func (r *Runner) finalize(ds *Dataset) *Dataset {
	r.Sim.Run()
	if st := ds.stream; st != nil {
		// release keeps the window head unfolded, so this drains it.
		for len(st.window) > 0 {
			r.fold(ds, st.base)
		}
	} else {
		r.attachSessions(ds)
	}
	for _, fe := range r.Dep.FEs {
		ds.FEFetchTimes[fe.Host()] = fe.FetchTimes()
	}
	r.observe(ds)
	// One heap reading per completed world: with many batch worlds in
	// flight this is what traces the campaign's memory watermark.
	r.rt.SampleMem()
	return ds
}

// attachSessions stores each node's whole trace on the dataset and
// attaches every record's session events by connection key.
func (r *Runner) attachSessions(ds *Dataset) {
	for host, rec := range r.recs {
		ds.Traces[host] = rec.Trace()
	}
	// Split each node's trace into sessions once; records then attach
	// by connection key.
	sessionsByNode := make(map[simnet.HostID]map[capture.ConnKey][]capture.Event, len(ds.Traces))
	for i := range ds.Records {
		rr := &ds.Records[i]
		sessions, ok := sessionsByNode[rr.Node]
		if !ok {
			tr, have := ds.Traces[rr.Node]
			if !have {
				continue
			}
			_, sessions = tr.Sessions()
			sessionsByNode[rr.Node] = sessions
		}
		rr.Events = sessions[rr.Key]
	}
}

// feLogKey joins an FE-side fetch record with a client-side session: the
// FE saw the client's host and TCP source port, which the client's
// record knows as (Node, Key.LocalPort). Ephemeral ports DO recycle on
// long runs (a 16-bit space against paper-scale 720-repeat campaigns),
// so a key maps to all fetch records that ever used the port; the join
// then disambiguates by handshake time — the record whose GET arrived
// inside the query's [IssuedAt, DoneAt] window is the right one.
type feLogKey struct {
	client string
	port   uint16
}

// matchFetch selects the fetch record belonging to the query window.
// FE arrival always falls inside it: the GET leaves at IssuedAt and the
// response returns by DoneAt. At most one candidate can match, because
// a port cannot host two interleaved sessions.
func matchFetch(cands []frontend.FetchRecord, issued, done time.Duration) (frontend.FetchRecord, bool) {
	for _, fr := range cands {
		if fr.Arrived >= issued && fr.Arrived <= done {
			return fr, true
		}
	}
	return frontend.FetchRecord{}, false
}

// observe flushes registry snapshots and, when span retention is on
// (keep-everything tracer or tail sampler), assembles one causal span
// tree per completed record.
func (r *Runner) observe(ds *Dataset) {
	o := r.obsv
	if o == nil {
		return
	}
	r.simMetrics.Flush()
	r.Net.ExportMetrics(o.Registry())
	r.observePhases(ds)
	if !o.WantSpans() {
		return
	}
	tracer := o.Tracer()
	logs := make(map[simnet.HostID]map[feLogKey][]frontend.FetchRecord, len(r.Dep.FEs))
	links := make(map[simnet.HostID]beLink, len(r.Dep.FEs))
	for _, fe := range r.Dep.FEs {
		m := make(map[feLogKey][]frontend.FetchRecord)
		for _, fr := range fe.FetchLog() {
			k := feLogKey{fr.Client, fr.ClientPort}
			m[k] = append(m[k], fr)
		}
		logs[fe.Host()] = m
		if be := r.Dep.BEOf(fe); be != nil {
			links[fe.Host()] = beLink{be: be.Host(), rtt: r.Net.RTT(fe.Host(), be.Host())}
		}
	}
	for i := range ds.Records {
		rr := &ds.Records[i]
		if rr.Failed || rr.Span != nil || rr.Key == (capture.ConnKey{}) {
			continue
		}
		rr.Span = r.assembleSpan(rr, logs[rr.FE], links[rr.FE])
		tracer.Add(rr.Span)
	}
}

// beLink is the FE's assigned back-end and the base FE↔BE round-trip
// propagation delay, annotated onto fe-fetch spans so the critical-path
// attribution (internal/obs/critpath) can split the fetch window into
// backbone propagation vs BE processing.
type beLink struct {
	be  simnet.HostID
	rtt time.Duration
}

// observePhases feeds the dimensional quantile sketches: per-phase
// durations labeled by service, per-FE overall delay, and per-vantage
// overall delay under a bounded cardinality cap (fleet nodes are the
// one label dimension that scales with deployment size).
func (r *Runner) observePhases(ds *Dataset) {
	reg := r.obsv.Registry()
	if reg == nil {
		return
	}
	phase := reg.SketchVec("query_phase_seconds",
		"per-phase query durations (client-observed)",
		obs.DefaultSketchAlpha, "service", "phase")
	perFE := reg.SketchVec("fe_overall_seconds",
		"overall query delay by serving front-end",
		obs.DefaultSketchAlpha, "service", "fe")
	perNode := reg.SketchVec("vantage_overall_seconds",
		"overall query delay by vantage node",
		obs.DefaultSketchAlpha, "service", "vantage").Bounded(obs.DefaultCardinality)
	svc := ds.Service
	for i := range ds.Records {
		rr := &ds.Records[i]
		if rr.Failed {
			continue
		}
		overall := rr.OverallDelay().Seconds()
		phase.With(svc, "overall").Observe(overall)
		perFE.With(svc, string(rr.FE)).Observe(overall)
		perNode.With(svc, string(rr.Node)).Observe(overall)
		if rr.DNSTime > 0 {
			phase.With(svc, "dns").Observe(rr.DNSTime.Seconds())
		}
		if s, err := trace.Parse(rr.Key, rr.Events); err == nil {
			phase.With(svc, "handshake").Observe(s.RTT.Seconds())
			phase.With(svc, "get").Observe((s.T3 - s.T1).Seconds())
			phase.With(svc, "delivery").Observe((s.TE - s.T3).Seconds())
		}
	}
}

// assembleSpan builds the paper's Figure-2 causal phases of one query as
// a span tree: client-side phases from the parsed packet session, plus
// the FE's hidden ground truth (static flush, FE↔BE fetch) on a second
// track. As a side effect it fills Record.TrueFetch from the FE log.
func (r *Runner) assembleSpan(rr *Record, feLog map[feLogKey][]frontend.FetchRecord, link beLink) *obs.Span {
	start := rr.IssuedAt - rr.DNSTime
	root := &obs.Span{
		Name:  "query",
		Track: "client",
		Key:   obs.ConnKey(rr.Key),
		Start: start,
		End:   rr.DoneAt,
	}
	root.SetAttr("node", string(rr.Node))
	root.SetAttr("fe", string(rr.FE))
	root.SetAttr("keywords", rr.Query.Keywords)
	if rr.DNSTime > 0 {
		root.Child("dns-resolve", start, rr.IssuedAt)
	}
	if s, err := trace.Parse(rr.Key, rr.Events); err == nil {
		root.Child("tcp-handshake", s.TB, s.TB+s.RTT)
		root.Child("get-request", s.T1, s.T3)
		root.Child("delivery", s.T3, s.TE)
	}
	cands := feLog[feLogKey{string(rr.Node), rr.Key.LocalPort}]
	if fr, ok := matchFetch(cands, rr.IssuedAt, rr.DoneAt); ok {
		if fr.StaticAt > 0 {
			c := root.Child("fe-static-flush", fr.Arrived, fr.StaticAt)
			c.Track = "frontend"
		}
		if fr.FetchDone > 0 {
			c := root.Child("fe-fetch", fr.Arrived, fr.FetchDone)
			c.Track = "frontend"
			if link.be != "" {
				c.SetAttr("be", string(link.be))
				c.SetAttr("be_rtt_ns", strconv.FormatInt(int64(link.rtt), 10))
			}
			if fr.QueueWait > 0 {
				// BE-reported cluster queueing inside the fetch window,
				// powering the be-queue critical-path phase.
				c.SetAttr("be_queue_ns", strconv.FormatInt(int64(fr.QueueWait), 10))
			}
			rr.TrueFetch = fr.FetchDone - fr.Arrived
		}
	}
	return root
}

// FEResolver abstracts DNS-style client→FE resolution (implemented by
// dns.Resolver). Resolve returns the FE to use for a client at point p
// at virtual time now, plus the resolution cost the client pays first.
type FEResolver interface {
	Resolve(now time.Duration, client simnet.HostID, p geo.Point) (*frontend.Server, time.Duration)
}

// AOptions parameterize Experiment A.
type AOptions struct {
	// QueriesPerNode (default 20) and Interval (default 10 s, the
	// paper's pacing).
	QueriesPerNode int
	Interval       time.Duration
	// Queries is the shared query list; nodes cycle through it. When
	// nil, a generated granular-class corpus is used.
	Queries []workload.Query
	// QuerySeed generates the default corpus.
	QuerySeed int64
	// Resolver, when set, replaces the idealized nearest-FE mapping
	// with DNS-style resolution: per-lookup FE choice plus a
	// resolution delay on cache misses (paper footnote 3).
	Resolver FEResolver
}

func (o AOptions) withDefaults() AOptions {
	if o.QueriesPerNode <= 0 {
		o.QueriesPerNode = 20
	}
	if o.Interval <= 0 {
		o.Interval = 10 * time.Second
	}
	return o
}

// RunExperimentA runs the default-FE experiment: every node sends the
// shared query sequence to its DNS-default FE every Interval.
func (r *Runner) RunExperimentA(opts AOptions) *Dataset {
	return r.runExperimentARange(opts, 0, len(r.Fleet.Nodes))
}

// runExperimentARange runs Experiment A for the node index range
// [lo, hi) only — the per-batch body of RunShardedA. Query corpus and
// per-node stagger derive from global node indices, so a batch's nodes
// behave exactly as they would in the full campaign.
func (r *Runner) runExperimentARange(opts AOptions, lo, hi int) *Dataset {
	opts = opts.withDefaults()
	queries := opts.Queries
	if len(queries) == 0 {
		gen := workload.NewGenerator(opts.QuerySeed + 77)
		queries = gen.Corpus(opts.QueriesPerNode, workload.ClassGranular)
	}
	ds := r.newDataset("A")
	for i := lo; i < hi; i++ {
		node := r.Fleet.Nodes[i]
		defaultFE := r.Dep.DefaultFE(node.Point)
		// Stagger node start times so the fleet doesn't fire in
		// lockstep (PlanetLab nodes were never synchronized).
		start := time.Duration(i%97) * 103 * time.Millisecond
		for k := 0; k < opts.QueriesPerNode; k++ {
			q := queries[k%len(queries)]
			at := start + time.Duration(k)*opts.Interval
			if opts.Resolver == nil {
				r.issueAt(ds, at, node, defaultFE, q)
				continue
			}
			// DNS resolution happens at query time; the GET follows
			// after the lookup cost.
			r.Sim.ScheduleAt(at, func() {
				fe, cost := opts.Resolver.Resolve(r.Sim.Now(), node.Host, node.Point)
				r.issueAtDNS(ds, r.Sim.Now()+cost, node, fe, q, cost)
			})
		}
	}
	return r.finalize(ds)
}

// RunKeepAliveA is the connection-reuse variant of Experiment A: each
// node opens ONE persistent connection to its default FE and issues all
// its queries over it with "Connection: keep-alive" (browser behavior).
// The paper's emulator opens a fresh connection per query; comparing
// the two quantifies the handshake + cold-window cost. Records carry
// overall delays but no per-session packet events (the shared
// connection's trace cannot be split per query).
func (r *Runner) RunKeepAliveA(opts AOptions) *Dataset {
	opts = opts.withDefaults()
	queries := opts.Queries
	if len(queries) == 0 {
		gen := workload.NewGenerator(opts.QuerySeed + 77)
		queries = gen.Corpus(opts.QueriesPerNode, workload.ClassGranular)
	}
	ds := r.newDataset("A-keepalive")
	for i, node := range r.Fleet.Nodes {
		node := node
		fe := r.Dep.DefaultFE(node.Point)
		pc := httpsim.NewPersistentConn(r.eps[node.Host], fe.Host(), frontend.FEPort)
		start := time.Duration(i%97) * 103 * time.Millisecond
		for k := 0; k < opts.QueriesPerNode; k++ {
			q := queries[k%len(queries)]
			at := start + time.Duration(k)*opts.Interval
			r.Sim.ScheduleAt(at, func() {
				seq := ds.add(Record{
					Node:     node.Host,
					FE:       fe.Host(),
					Query:    q,
					IssuedAt: r.Sim.Now(),
					Failed:   true,
				})
				req := httpsim.NewGet(r.Dep.Name, q.Path())
				req.Header["Connection"] = "keep-alive"
				pc.Do(req, httpsim.ResponseCallbacks{
					OnDone: func(resp *httpsim.Response) {
						rr := ds.record(seq)
						rr.Failed = false
						rr.DoneAt = r.Sim.Now()
						rr.Status = resp.Status
						rr.BodyLen = len(resp.Body)
					},
				})
			})
		}
	}
	r.Sim.Run()
	for _, fe := range r.Dep.FEs {
		ds.FEFetchTimes[fe.Host()] = fe.FetchTimes()
	}
	r.observe(ds)
	return ds
}

// OpenLoopOptions parameterize an open-loop arrival campaign: every
// node issues queries on its own fixed schedule regardless of
// completions, so offered load is a pure function of the options — the
// harness for the overload, hotspot and failover scenarios against
// queue-enabled back ends (docs/QUEUEING.md).
type OpenLoopOptions struct {
	// FE, when set, is the fixed front-end every node queries;
	// nil → each node's default (nearest) FE.
	FE *frontend.Server
	// Queries is the corpus nodes cycle through (generated granular
	// corpus of QueriesPerNode when empty).
	Queries        []workload.Query
	QueriesPerNode int
	QuerySeed      int64
	// Horizon is the arrival horizon: nodes stop issuing at this sim
	// time (completions may land later).
	Horizon time.Duration
	// BaseInterval is the per-node inter-arrival time outside the surge
	// window.
	BaseInterval time.Duration
	// SurgeStart/SurgeEnd bound the half-open surge window
	// [SurgeStart, SurgeEnd) during which each node's arrival rate is
	// multiplied by SurgeFactor (≥ 2 for a traffic spike; 0 or 1 = no
	// rate surge).
	SurgeStart, SurgeEnd time.Duration
	SurgeFactor          int
	// HotQuery, when set, replaces the corpus inside the surge window —
	// the hotspot-keyword scenario: a complex query whose larger
	// service time overloads the cluster at an unchanged arrival rate.
	HotQuery workload.Query
	// Curve, when non-nil, modulates each node's arrival rate by a
	// piecewise-linear diurnal shape: the inter-arrival step at time t
	// is BaseInterval divided by Curve.Rate(t) (here a dimensionless
	// multiplier; 1.0 = BaseInterval pacing). Zero-rate stretches pause
	// arrivals until the curve rises again. Composes multiplicatively
	// with the surge window.
	Curve *DiurnalCurve
}

// RunOpenLoop runs an open-loop arrival campaign and returns its
// dataset. Arrival times are deterministic: node i starts at the usual
// fleet stagger and steps by BaseInterval (BaseInterval/SurgeFactor
// inside the surge window), issuing corpus queries in sequence (the
// HotQuery inside the window, when set).
func (r *Runner) RunOpenLoop(opts OpenLoopOptions) *Dataset {
	queries := opts.Queries
	if len(queries) == 0 {
		n := opts.QueriesPerNode
		if n <= 0 {
			n = 20
		}
		gen := workload.NewGenerator(opts.QuerySeed + 77)
		queries = gen.Corpus(n, workload.ClassGranular)
	}
	ds := r.newDataset("open-loop")
	for i, node := range r.Fleet.Nodes {
		fe := opts.FE
		if fe == nil {
			fe = r.Dep.DefaultFE(node.Point)
		}
		start := time.Duration(i%97) * 103 * time.Millisecond
		k := 0
		for at := start; at < opts.Horizon; {
			surging := at >= opts.SurgeStart && at < opts.SurgeEnd
			q := queries[k%len(queries)]
			if surging && opts.HotQuery.Keywords != "" {
				q = opts.HotQuery
			}
			r.issueAt(ds, at, node, fe, q)
			k++
			step := opts.BaseInterval
			if surging && opts.SurgeFactor > 1 {
				step = opts.BaseInterval / time.Duration(opts.SurgeFactor)
			}
			if opts.Curve != nil {
				if rate := opts.Curve.Rate(at); rate > 0 {
					step = time.Duration(float64(step) / rate)
				} else {
					// Zero-rate stretch: jump to the next anchor where
					// the curve can rise again, not past the horizon.
					next := opts.Horizon
					for _, p := range opts.Curve.Points {
						if p.At > at && p.At < next {
							next = p.At
							break
						}
					}
					at = next
					continue
				}
			}
			at += step
		}
	}
	return r.finalize(ds)
}

// BOptions parameterize Experiment B.
type BOptions struct {
	// FE is the fixed front-end server every node queries.
	FE *frontend.Server
	// Repeats per node (paper: 720) and Interval between repeats.
	Repeats  int
	Interval time.Duration
	// Query is the single repeated query. Zero value → a generated
	// granular query.
	Query workload.Query
	// QuerySeed generates the default query.
	QuerySeed int64
	// Sink, when non-nil, streams the campaign: each session is folded
	// into the sink as its connection terminates (Record.Seq gives the
	// issue order), and the node recorders keep only sessions still in
	// flight, so memory does not grow with Repeats. The returned
	// Dataset then carries only FEFetchTimes — no Records, no Traces.
	// Streaming does not assemble per-record observations, so it
	// cannot be combined with Options.Obs.
	Sink RecordSink
}

func (o BOptions) withDefaults() BOptions {
	if o.Repeats <= 0 {
		o.Repeats = 720
	}
	if o.Interval <= 0 {
		o.Interval = 10 * time.Second
	}
	return o
}

// RunExperimentB runs the fixed-FE experiment: all nodes repeatedly
// query one FE server, whatever their distance to it.
func (r *Runner) RunExperimentB(opts BOptions) (*Dataset, error) {
	opts = opts.withDefaults()
	if opts.FE == nil {
		return nil, fmt.Errorf("emulator: experiment B needs a fixed FE")
	}
	q := opts.Query
	if q.Keywords == "" {
		gen := workload.NewGenerator(opts.QuerySeed + 177)
		q = gen.Query(workload.ClassGranular)
	}
	ds := r.newDataset("B")
	if opts.Sink != nil {
		if r.obsv != nil {
			return nil, fmt.Errorf("emulator: a streamed experiment B (BOptions.Sink) cannot be observed per record; build the runner without Options.Obs")
		}
		ds.stream = &recordStream{sink: opts.Sink}
		// Late segments of folded sessions (e.g. retransmissions that
		// cross the teardown) are dropped, not kept forever.
		for host, rec := range r.recs {
			ep := r.eps[host]
			rec.Live = func(k capture.ConnKey) bool {
				return ep.HasConn(simnet.HostID(k.Remote), k.RemotePort, k.LocalPort)
			}
		}
		defer func() {
			for _, rec := range r.recs {
				rec.Live = nil
			}
		}()
	}
	for i, node := range r.Fleet.Nodes {
		start := time.Duration(i%97) * 103 * time.Millisecond
		for k := 0; k < opts.Repeats; k++ {
			r.issueAt(ds, start+time.Duration(k)*opts.Interval, node, opts.FE, q)
		}
	}
	ds = r.finalize(ds)
	ds.stream = nil
	return ds, nil
}

// KeywordSweep runs the Figure-3 experiment: one node, one fixed FE,
// sequential sample queries per keyword class.
func (r *Runner) KeywordSweep(fe *frontend.Server, node vantage.Node,
	samplesPerClass int, interval time.Duration, querySeed int64) map[workload.Class]*Dataset {
	out := make(map[workload.Class]*Dataset)
	gen := workload.NewGenerator(querySeed)
	// Interleave classes in time so slow drift affects all equally.
	for ci, class := range workload.Classes() {
		ds := r.newDataset(fmt.Sprintf("fig3-%s", class))
		q := gen.Query(class)
		for k := 0; k < samplesPerClass; k++ {
			at := time.Duration(k)*interval + time.Duration(ci)*(interval/8)
			r.issueAt(ds, at, node, fe, q)
		}
		out[class] = ds
	}
	r.Sim.Run()
	for _, ds := range out {
		r.finalize(ds)
	}
	return out
}

// CachingProbe runs the Section-3 caching-detection methodology against
// a fixed FE: phase 1 has every node submit the SAME query; phase 2 has
// every node submit a DIFFERENT query. If FEs (or BEs) cached results,
// phase 1's Tdynamic would collapse; the paper observed no difference.
func (r *Runner) CachingProbe(fe *frontend.Server, repeats int,
	interval time.Duration, querySeed int64) (same, distinct *Dataset) {
	gen := workload.NewGenerator(querySeed)
	// Draw the shared query from the same pool as the distinct ones so
	// the phases have identical term counts and popularity bands —
	// any Tdynamic difference then isolates result caching.
	pool := gen.DistinctQueries(len(r.Fleet.Nodes)*repeats + 1)
	shared, distinctQs := pool[0], pool[1:]

	same = r.newDataset("caching-same")
	distinct = r.newDataset("caching-distinct")
	di := 0
	for i, node := range r.Fleet.Nodes {
		start := time.Duration(i%97) * 103 * time.Millisecond
		for k := 0; k < repeats; k++ {
			at := start + time.Duration(k)*interval
			// Interleave the phases so slowly varying server load
			// affects both equally.
			r.issueAt(same, at, node, fe, shared)
			r.issueAt(distinct, at+interval/2, node, fe, distinctQs[di])
			di++
		}
	}
	r.Sim.Run()
	r.finalize(same)
	r.finalize(distinct)
	return same, distinct
}
