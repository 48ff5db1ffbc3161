package main

// The reported metrics: their names, units and how each is derived from
// the repetitions of one run.

import (
	"fmt"
	"sort"
)

// spec names one reported metric and its unit.
type spec struct{ name, unit string }

// endToEndSpecs are the metrics a user of fesplit sees (-trace 0).
var endToEndSpecs = []spec{
	{"wall_s", "s"},
	{"queries_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"setup_s", "s"},
}

// perLayerSpecs are the metrics of single layers (-trace 1).
var perLayerSpecs = func() []spec {
	out := []spec{
		{"runtime.alloc_bytes", "B"},
		{"runtime.alloc_objects", "count"},
		{"runtime.gc_cpu_frac", "frac"},
		{"runtime.gc_cycles", "count"},
		{"runtime.peak_live_mib", "MiB"},
		{"simnet.events", "count"},
		{"simnet.sim_s", "s"},
		{"simnet.events_per_s", "1/s"},
		{"simnet.heap_depth_max", "count"},
		{"tcpsim.fast_epochs", "count"},
		{"tcpsim.fast_segments", "count"},
		{"tcpsim.fast_bytes", "B"},
		{"tcpsim.fallbacks", "count"},
		{"tcpsim.fast_share", "frac"},
		{"tcpsim.retransmits", "count"},
		{"emulator.run_s", "s"},
		{"emulator.retained_mib", "MiB"},
		{"emulator.fleet_slots", "count"},
		{"emulator.fleet_peak_live", "count"},
		{"frontend.requests", "count"},
		{"frontend.peak_fetch_log", "count"},
		{"backend.requests", "count"},
		{"backend.rejections", "count"},
		{"analysis.extract_s", "s"},
		{"analysis.critpath_breaks", "count"},
		{"shard.tasks", "count"},
		{"shard.core_util", "frac"},
		{"study.fig3_s", "s"},
		{"study.fig4_s", "s"},
		{"study.fig5_s", "s"},
		{"study.figA_s", "s"},
		{"study.fig9_s", "s"},
		{"study.caching_s", "s"},
		{"study.term_effect_s", "s"},
		{"study.wireless_s", "s"},
		{"study.queue_s", "s"},
		{"study.other_s", "s"},
		{"study.export_s", "s"},
		{"study.longest_cell_s", "s"},
		{"bench.trace_overhead_frac", "frac"},
		{"bench.steal_frac", "frac"},
	}
	for _, l := range reportedLayers {
		out = append(out, spec{l + ".cpu_share", "frac"}, spec{l + ".alloc_share", "frac"})
	}
	return out
}()

// endToEnd reduces untraced repetitions and set-up builds to medians.
func endToEnd(reps []*repResult, setup *repResult) map[string]metric {
	v := map[string]float64{
		"wall_s":        medianOf(reps, func(r *repResult) float64 { return r.WallS }),
		"queries_per_s": medianOf(reps, func(r *repResult) float64 { return float64(r.Completed) / r.WallS }),
		"cpu_s":         medianOf(reps, func(r *repResult) float64 { return r.CPUS }),
		"peak_rss_mib":  medianOf(reps, func(r *repResult) float64 { return r.PeakRSSMiB }),
		"setup_s":       median(setup.SetupS),
	}
	return withUnits(endToEndSpecs, v)
}

// perLayer combines the traced repetition's readings with medians of the
// untraced ones. Metrics a workload does not exercise read 0 and are
// listed on stdout.
func perLayer(reps []*repResult, traced *repResult) map[string]metric {
	v := map[string]float64{}
	for k, x := range traced.Layer {
		v[k] = x
	}
	for _, r := range reps {
		for k, x := range r.Exact {
			v[k] = x
		}
	}
	for k, x := range traced.Exact {
		v[k] = x
	}
	// Process-wide counters come from the untraced repetitions: the
	// profiler allocates and burns CPU of its own. So does host steal,
	// which belongs with the end-to-end times it inflates.
	for _, k := range []string{"runtime.alloc_bytes", "runtime.alloc_objects", "runtime.gc_cpu_frac", "runtime.gc_cycles", "bench.steal_frac"} {
		v[k] = medianOf(reps, func(r *repResult) float64 { return r.Layer[k] })
	}
	wall := medianOf(reps, func(r *repResult) float64 { return r.WallS })
	cpu := medianOf(reps, func(r *repResult) float64 { return r.CPUS })
	v["simnet.events_per_s"] = v["simnet.events"] / wall
	// Lane segments bypass the event heap; every other delivery is a
	// heap event, so this is the share of deliveries the lane carried.
	if lane := v["tcpsim.fast_segments"]; lane > 0 {
		v["tcpsim.fast_share"] = lane / (lane + v["simnet.events"])
	}
	v["shard.core_util"] = cpu / (wall * workers)
	v["bench.trace_overhead_frac"] = traced.WallS/wall - 1
	var absent []string
	for _, s := range perLayerSpecs {
		if _, ok := v[s.name]; !ok {
			absent = append(absent, s.name)
		}
	}
	if len(absent) > 0 {
		fmt.Printf("not exercised by this workload (reported as 0): %v\n", absent)
	}
	return withUnits(perLayerSpecs, v)
}

func withUnits(specs []spec, v map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.name] = metric{Value: v[s.name], Unit: s.unit}
	}
	return out
}

// medianOf is the median of one reading over the repetitions.
func medianOf(reps []*repResult, f func(r *repResult) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
