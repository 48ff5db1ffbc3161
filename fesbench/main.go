// Command fesbench is fesplit's benchmark: it runs one named workload
// through the public library API at a given seed, checks the simulated
// outputs, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of an extra traced run) followed by one JSON result
// line. See README.md in this directory.
//
// Every repetition runs in a child process of its own, so its peak RSS
// is its own. Usage, from the repository root:
//
//	bash fesbench/run.sh --workload study --seed 42 --seconds 40 --trace 0
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// repResult is what one child process reports to the harness.
type repResult struct {
	WallS      float64            `json:"wall_s"`
	CPUS       float64            `json:"cpu_s"`
	PeakRSSMiB float64            `json:"peak_rss_mib"`
	Attempted  int                `json:"attempted"`
	Completed  int                `json:"completed"`
	Digest     string             `json:"digest"`
	Exact      map[string]float64 `json:"exact"`
	Layer      map[string]float64 `json:"layer"`
	Failures   []string           `json:"failures"`
	Passed     []string           `json:"passed,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
	SetupS     []float64          `json:"setup_s,omitempty"`
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line flags of the harness.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	tiny     bool
	root     string
}

const (
	minReps      = 3  // untraced repetitions per -trace 0 run, at least
	minTraceReps = 2  // untraced repetitions beside a traced one
	setupSamples = 31 // set-up builds per run; setup_s is their median
	// runDeadline caps one workload's run, children included, so a hung
	// repetition still ends the run inside three minutes.
	runDeadline = 170 * time.Second
)

func main() {
	var o options
	child := flag.String("child", "", "internal: run one repetition (setup, run or traced) and print its result")
	dir := flag.String("dir", "", "internal: scratch output directory of a child")
	flag.StringVar(&o.workload, "workload", "all", "workload: study, fleet, fixedfe or all")
	flag.Int64Var(&o.seed, "seed", 42, "workload seed (42 is the seed testdata/golden pins)")
	flag.Float64Var(&o.seconds, "seconds", 40, "measuring time per workload, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an extra traced run")
	flag.BoolVar(&o.tiny, "tiny", false, "smoke size: every workload at a small fraction of its work")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.Parse()

	if o.trace != 0 && o.trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", o.trace))
	}
	root, err := repoRoot(o.root)
	if err != nil {
		fatal(err)
	}
	o.root = root
	if *child != "" {
		if err := childMain(*child, o, *dir); err != nil {
			fatal(err)
		}
		return
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		if _, ok := findWorkload(name); !ok {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
		res, err := bench(ctx, o, name)
		cancel()
		if err != nil {
			fatal(err)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !total.Correct || total.Failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fesbench:", err)
	os.Exit(2)
}

// repoRoot resolves the repository root and checks it holds the fesplit
// module, so a benchmark copied without its program fails at once.
func repoRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	mod, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil || !bytes.HasPrefix(mod, []byte("module fesplit\n")) {
		return "", fmt.Errorf("%s does not hold the fesplit module", abs)
	}
	return abs, nil
}

// bench measures one workload: untraced repetitions (plus the set-up
// builds, or one traced repetition), each in its own process, then the
// output checks across all of them.
func bench(ctx context.Context, o options, name string) (result, error) {
	work := filepath.Join(o.root, ".bench_build", "tmp")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return result{}, err
	}
	start := time.Now()
	var reps []*repResult
	var setup *repResult
	var traced *repResult
	var errs []string
	spawn := func(mode string) *repResult {
		r, err := runChild(ctx, o, name, mode, work)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s repetition: %v", mode, err))
			return nil
		}
		return r
	}
	if o.trace == 0 {
		setup = spawn("setup")
	}
	need := minReps
	if o.trace == 1 {
		need = minTraceReps
	}
	for {
		t0 := time.Now()
		r := spawn("run")
		if r == nil {
			break
		}
		reps = append(reps, r)
		last := time.Since(t0).Seconds()
		reserve := last // a traced run costs about one repetition more
		if o.trace == 0 {
			reserve = 0
		}
		if len(reps) >= need && time.Since(start).Seconds()+last+reserve > o.seconds {
			break
		}
	}
	if o.trace == 1 && len(errs) == 0 {
		traced = spawn("traced")
	}

	failures := append([]string(nil), errs...)
	failures = append(failures, crossCheck(o, name, reps, traced)...)
	res := result{Correct: len(failures) == 0, Metrics: map[string]metric{}}
	for _, r := range append(reps, traced) {
		if r == nil {
			continue
		}
		res.Attempted += r.Attempted
		res.Failed += r.Attempted - r.Completed
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1
	}
	for _, f := range failures {
		fmt.Printf("FAIL %s: %s\n", name, f)
	}
	if res.Correct && len(reps) > 0 {
		for _, p := range reps[0].Passed {
			fmt.Printf("ok %s: %s\n", name, p)
		}
	}
	switch {
	case len(reps) == 0:
	case o.trace == 0 && setup != nil:
		res.Metrics = endToEnd(reps, setup)
	case o.trace == 1 && traced != nil:
		res.Metrics = perLayer(reps, traced)
	}
	printTable(name, o, res, len(reps))
	if len(reps) > 0 {
		fmt.Printf("host steal during the repetitions: %.3f of CPU time (median)\n",
			medianOf(reps, func(r *repResult) float64 { return r.Layer["bench.steal_frac"] }))
	}
	return res, saveResultSet(o, name, res, reps, setup, traced, failures)
}

// runChild runs one repetition in a fresh process of this binary.
func runChild(ctx context.Context, o options, name, mode, work string) (*repResult, error) {
	dir, err := os.MkdirTemp(work, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "-child", mode, "-dir", dir,
		"-workload", name, "-seed", fmt.Sprint(o.seed), fmt.Sprintf("-tiny=%v", o.tiny), "-root", o.root)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	// A child must not outlive the harness, even if the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	r := &repResult{}
	if err := json.Unmarshal([]byte(last), r); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return r, nil
}

// crossCheck applies the output checks that span repetitions: every
// repetition (and the traced one) must yield the same digest and the
// same exact counts, and so must every earlier run of this seed on the
// same code.
func crossCheck(o options, name string, reps []*repResult, traced *repResult) []string {
	var fails []string
	all := append([]*repResult(nil), reps...)
	if traced != nil {
		all = append(all, traced)
	}
	if len(all) == 0 {
		return []string{"no repetition completed"}
	}
	for _, r := range all {
		fails = append(fails, r.Failures...)
	}
	ref := &repResult{Digest: all[0].Digest, Exact: map[string]float64{}}
	for k, v := range all[0].Exact {
		ref.Exact[k] = v
	}
	for _, r := range all[1:] {
		for k, v := range r.Exact {
			if _, ok := ref.Exact[k]; !ok {
				ref.Exact[k] = v
			}
		}
	}
	// Pins are keyed by the code under test, so a change that moves the
	// outputs on purpose starts a fresh pin.
	pinned := filepath.Join(o.root, ".bench_build", "pinned",
		fmt.Sprintf("%s-seed%d-tiny%v-%s.json", name, o.seed, o.tiny, sourceHash(o.root)))
	prev := &repResult{}
	if b, err := os.ReadFile(pinned); err == nil && json.Unmarshal(b, prev) == nil {
		all = append(all, prev)
	}
	for i, r := range all {
		what := fmt.Sprintf("repetition %d", i)
		if r == prev {
			what = "an earlier run of this seed"
		}
		if r.Digest != ref.Digest {
			fails = append(fails, fmt.Sprintf("%s: output digest %.12s differs from %.12s", what, r.Digest, ref.Digest))
		}
		// A traced run reads some counts an untraced one does not (the
		// fleet's registry), so only counts both sides hold are compared.
		for k, v := range r.Exact {
			if want, ok := ref.Exact[k]; ok && v != want {
				fails = append(fails, fmt.Sprintf("%s: exact count %s = %v differs from %v", what, k, v, want))
			}
		}
	}
	if len(fails) == 0 {
		for k, v := range prev.Exact {
			if _, ok := ref.Exact[k]; !ok {
				ref.Exact[k] = v
			}
		}
		if b, err := json.Marshal(ref); err == nil {
			_ = os.MkdirAll(filepath.Dir(pinned), 0o755)
			_ = os.WriteFile(pinned, b, 0o644) // a missed pin only skips a later cross-run check
		}
	}
	return fails
}

// printTable prints the metrics one per line, by name and unit.
func printTable(name string, o options, res result, reps int) {
	fmt.Printf("workload %s seed %d trace %d: %d repetitions, %d queries attempted, %d failed\n",
		name, o.seed, o.trace, reps, res.Attempted, res.Failed)
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		fmt.Printf("  %-32s %14.6g %s\n", k, m.Value, m.Unit)
	}
}

// saveResultSet writes the run's result set with its provenance to
// .bench_build/results and prints the provenance line.
func saveResultSet(o options, name string, res result, reps []*repResult, setup, traced *repResult, failures []string) error {
	prov := provenance(o)
	b, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", b)
	set := map[string]any{
		"workload": name, "provenance": prov, "result": res,
		"repetitions": reps, "setup": setup, "traced": traced, "failures": failures,
	}
	b, err = json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	dir := filepath.Join(o.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%s.json",
		name, o.seed, o.trace, time.Now().UTC().Format("20060102T150405.000")))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("saving result set: %w", err)
	}
	return nil
}
