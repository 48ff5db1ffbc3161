package main

// One repetition, run in a child process: time the workload call, read
// the process's CPU time, allocation and GC counters and peak RSS, and
// in a traced repetition also profile CPU and allocations by layer.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

func childMain(mode string, o options, dir string) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	rc := &runCtx{seed: o.seed, tiny: o.tiny, root: o.root, dir: dir}
	var r *repResult
	var err error
	switch mode {
	case "setup":
		r, err = setupRep(w, rc)
	case "run", "traced":
		r, err = workloadRep(w, rc, mode == "traced")
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return fmt.Errorf("%s %s: %w", o.workload, mode, err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// setupRep times repeated constructions of the workload's worlds.
func setupRep(w workload, rc *runCtx) (*repResult, error) {
	r := &repResult{}
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		start := time.Now()
		if err := w.setup(rc); err != nil {
			return nil, err
		}
		r.SetupS = append(r.SetupS, time.Since(start).Seconds())
	}
	return r, nil
}

// workloadRep runs the workload call once and measures it.
func workloadRep(w workload, rc *runCtx, traced bool) (*repResult, error) {
	var cpuProf bytes.Buffer
	var live *peakLive
	if traced {
		rc.tr = newTracer()
		live = armPeakLive()
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			return nil, err
		}
	}
	m0 := readRuntime()
	steal0, ticks0 := hostSteal()
	cpu0 := cpuSeconds()
	start := time.Now()
	call := w.run
	if traced {
		call = w.traced
	}
	o, err := call(rc)
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	steal1, ticks1 := hostSteal()
	m1 := readRuntime()
	if traced {
		pprof.StopCPUProfile()
		live.stop()
	}
	if err != nil {
		return nil, err
	}
	r := &repResult{
		WallS: wall, CPUS: cpu, PeakRSSMiB: vmHWMMiB(),
		Attempted: o.attempted, Completed: o.completed,
		Digest: o.digest, Exact: o.exact, Layer: o.layer, Failures: o.failures, Passed: o.passed,
	}
	r.Layer["runtime.alloc_bytes"] = m1.allocBytes - m0.allocBytes
	r.Layer["runtime.alloc_objects"] = m1.allocObjects - m0.allocObjects
	r.Layer["runtime.gc_cycles"] = m1.gcCycles - m0.gcCycles
	if ticks1 > ticks0 {
		r.Layer["bench.steal_frac"] = float64(steal1-steal0) / float64(ticks1-ticks0)
	}
	if busy := (m1.cpuTotal - m1.cpuIdle) - (m0.cpuTotal - m0.cpuIdle); busy > 0 {
		r.Layer["runtime.gc_cpu_frac"] = (m1.cpuGC - m0.cpuGC) / busy
	}
	if !traced {
		return r, nil
	}
	r.Layer["runtime.peak_live_mib"] = float64(live.peak.Load()) / (1 << 20)
	cpuSamples, err := parseProfile(cpuProf.Bytes(), "cpu")
	if err != nil {
		return nil, err
	}
	runtime.GC() // the allocation profile is as of the last completed cycle
	var memProf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&memProf, 0); err != nil {
		return nil, err
	}
	allocSamples, err := parseProfile(memProf.Bytes(), "alloc_space")
	if err != nil {
		return nil, err
	}
	for layer, share := range reportedShares(foldLayers(cpuSamples)) {
		r.Layer[layer+".cpu_share"] = share
	}
	for layer, share := range reportedShares(foldLayers(allocSamples)) {
		r.Layer[layer+".alloc_share"] = share
	}
	if w.post != nil {
		if err := w.post(rc, o); err != nil {
			return nil, err
		}
	}
	r.Spans = rc.tr.spans
	return r, nil
}

// reportedLayers are the layers reported by name; every other package
// folds into "other", so the reported shares still sum to 1.
var reportedLayers = []string{
	"runtime", "fesplit", "simnet", "tcpsim", "httpsim", "workload", "stats", "capture",
	"trace", "emulator", "frontend", "backend", "analysis", "obs", "shard", "other",
}

func reportedShares(shares map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(reportedLayers))
	for _, l := range reportedLayers {
		out[l] = 0
	}
	for l, s := range shares {
		if _, ok := out[l]; !ok {
			l = "other"
		}
		out[l] += s
	}
	return out
}

// --- process readings -------------------------------------------------

type runtimeReading struct {
	allocBytes, allocObjects, gcCycles float64
	cpuGC, cpuIdle, cpuTotal           float64
}

func readRuntime() runtimeReading {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = x.Value.Float64()
		}
	}
	return runtimeReading{v[0], v[1], v[2], v[3], v[4], v[5]}
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostSteal reads the machine-wide CPU ticks the hypervisor stole and
// the total ticks, from /proc/stat. Their ratio over a repetition says
// how much of the run the host took away; it is zero on bare metal.
func hostSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// vmHWMMiB reads the process's peak resident set size.
func vmHWMMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// peakLive records the largest live heap any GC cycle marked, from a
// finalizer that re-arms itself once per cycle on the runtime's own
// finalizer goroutine.
type peakLive struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

type gcSentinel struct{ _ *int }

func armPeakLive() *peakLive {
	p := &peakLive{}
	var arm func()
	arm = func() {
		runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
			s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > p.peak.Load() {
				p.peak.Store(v)
			}
			if !p.stopped.Load() {
				arm()
			}
		})
	}
	arm()
	return p
}

func (p *peakLive) stop() { p.stopped.Store(true) }

// --- spans ------------------------------------------------------------

// span is one timed call into a layer, kept in memory and written out
// with the result set when the run ends.
type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	StartS float64 `json:"start_s"`
	DurS   float64 `json:"dur_s"`
}

// tracer records spans; a nil tracer runs the calls untimed.
type tracer struct {
	t0    time.Time
	open  []string
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) span(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	parent := ""
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, name)
	start := time.Now()
	err := fn()
	t.spans = append(t.spans, span{Name: name, Parent: parent,
		StartS: start.Sub(t.t0).Seconds(), DurS: time.Since(start).Seconds()})
	t.open = t.open[:len(t.open)-1]
	return err
}

// add records an aggregate span measured elsewhere.
func (t *tracer) add(name, parent string, d time.Duration) {
	t.spans = append(t.spans, span{Name: name, Parent: parent, DurS: d.Seconds()})
}

// total sums the durations of the spans whose name starts with prefix.
func (t *tracer) total(prefix string) float64 {
	var sum float64
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			sum += s.DurS
		}
	}
	return sum
}

// --- provenance -------------------------------------------------------

// provenance identifies the code and machine a result set came from.
func provenance(o options) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"seed":       o.seed,
		"tiny":       o.tiny,
		"commit":     gitCommit(o.root),
		"source":     sourceHash(o.root),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit is the checked-out commit, or "none" outside a git checkout.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "none"
}

// sourceHash names the code under test, uncommitted edits included: a
// hash of every Go source and module file outside dot directories.
func sourceHash(root string) string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the hash
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
