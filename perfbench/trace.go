package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the program's public entry points.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // ID of the enclosing span, -1 for an operation's root
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced state: begin returns -1 and end returns 0, so workload code calls
// it unconditionally.
type tracer struct {
	t0    time.Time
	op    int
	mu    sync.Mutex // sweep workers add job spans concurrently
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name, layer string, parent int) int {
	if t == nil {
		return -1
	}
	return t.add(name, layer, parent, time.Now(), time.Time{})
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	return float64(s.End-s.Start) / 1e9
}

// add records a span with known bounds (a zero end leaves it open) and
// returns its ID.
func (t *tracer) add(name, layer string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{Op: t.op, ID: len(t.spans), Parent: parent, Name: name, Layer: layer, Start: int64(start.Sub(t.t0))}
	if !end.IsZero() {
		s.End = int64(end.Sub(t.t0))
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// write stores the spans as JSON lines under .bench_build/spans.
func (t *tracer) write(workload string) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// layerMetric names one per-layer metric and its unit. The list is the
// per_layer section of BENCHMARK.json, in the same order.
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	{"setup.newenv_s", "s"},
	{"setup.geometry_hits", "count"},
	{"setup.geometry_misses", "count"},
	{"engine.measured_s", "s"},
	{"engine.advance_s", "s"},
	{"engine.plan_s", "s"},
	{"engine.deliver_s", "s"},
	{"engine.refresh_s", "s"},
	{"engine.active_slots", "count"},
	{"engine.total_slots", "count"},
	{"engine.active_ratio", "ratio"},
	{"engine.shards", "count"},
	{"engine.shard_imbalance", "ratio"},
	{"engine.firequeue_depth_mean", "count"},
	{"engine.pop_batch_mean", "count"},
	{"protocol.run_s", "s"},
	{"protocol.unattributed_s", "s"},
	{"protocol.ops", "count"},
	{"protocol.tree_phases", "count"},
	{"discovery.links", "count"},
	{"rach.tx", "count"},
	{"rach.rx", "count"},
	{"rach.tx_bytes", "B"},
	{"rach.plan_ns_per_rx", "ns"},
	{"asyncnet.delayed", "count"},
	{"asyncnet.duplicated", "count"},
	{"asyncnet.rejected", "count"},
	{"asyncnet.peak_inflight", "count"},
	{"faults.repairs", "count"},
	{"faults.recoveries", "count"},
	{"faults.recovery_slots", "count"},
	{"snapshot.captures", "count"},
	{"snapshot.capture_s", "s"},
	{"snapshot.encode_s", "s"},
	{"snapshot.bytes", "B"},
	{"snapshot.decode_s", "s"},
	{"snapshot.resume_run_s", "s"},
	{"experiments.jobs", "count"},
	{"experiments.idle_s", "s"},
	{"experiments.tail_s", "s"},
	{"experiments.cpu_util", "ratio"},
	{"go.alloc_bytes", "B"},
	{"go.mallocs", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
	{"go.cpu_s", "s"},
	{"trace.wall_s", "s"},
	{"trace.parallelism", "count"},
	{"trace.unaccounted_s", "s"},
	{"trace.overhead", "ratio"},
}

// selfTimes are the layer self times that add up to trace.parallelism ×
// trace.wall_s: every second of every worker lands in exactly one of them.
var selfTimes = []string{
	"setup.newenv_s",
	"engine.measured_s",
	"snapshot.capture_s",
	"snapshot.decode_s",
	"protocol.unattributed_s",
	"experiments.idle_s",
	"trace.unaccounted_s",
}

// layers accumulates one traced operation's per-layer metrics.
type layers map[string]float64

// addEngine folds one run's RunStats into the engine and checkpoint metrics.
func (l layers) addEngine(rs *telemetry.RunStats) {
	rep := rs.Report()
	l["engine.measured_s"] += float64(rep.MeasuredNanos) / 1e9
	for _, p := range rep.Phases {
		if p.Phase == telemetry.PhaseCheckpoint.String() {
			continue
		}
		l["engine."+p.Phase+"_s"] += float64(p.Nanos) / 1e9
	}
	if s := rep.Shard; s != nil {
		l["engine.shards"] = max(l["engine.shards"], float64(s.Shards))
		l["engine.shard_imbalance"] = max(l["engine.shard_imbalance"], s.Imbalance)
	}
	if d := rep.FireQueueDepth; d != nil {
		l["engine.firequeue_depth_mean"] = max(l["engine.firequeue_depth_mean"], d.Mean)
		l["engine.pop_batch_mean"] = max(l["engine.pop_batch_mean"], rep.PopBatch.Mean)
	}
	if c := rep.Checkpoint; c != nil {
		l["snapshot.captures"] += float64(c.Captures)
		l["snapshot.capture_s"] += float64(c.CaptureNanos) / 1e9
	}
}

// addResult folds one run's simulated work counts into the metrics.
func (l layers) addResult(res core.Result) {
	l["engine.active_slots"] += float64(res.ActiveSlots)
	l["engine.total_slots"] += float64(res.TotalSlots)
	l["protocol.ops"] += float64(res.Ops)
	l["protocol.tree_phases"] += float64(res.TreePhases)
	l["discovery.links"] += float64(res.DiscoveredLinks)
	l["rach.tx"] += float64(res.Counters.TotalTx())
	l["rach.rx"] += float64(res.Counters.TotalRx())
	l["rach.tx_bytes"] += float64(res.Counters.TotalTxBytes())
	if n := res.Net; n != nil {
		l["asyncnet.delayed"] += float64(n.Delayed)
		l["asyncnet.duplicated"] += float64(n.Duplicated)
		l["asyncnet.rejected"] += float64(n.Rejected)
		l["asyncnet.peak_inflight"] = max(l["asyncnet.peak_inflight"], float64(n.Peak))
	}
	l["faults.repairs"] += float64(res.Repairs)
	l["faults.recoveries"] += float64(res.Recoveries)
	l["faults.recovery_slots"] += float64(res.RecoverySlots)
}

// finishRatios recomputes the work-normalised ratios from their averaged
// bases, which are printed beside them.
func finishRatios(m map[string]metric) {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	set("rach.plan_ns_per_rx", ratio(m["engine.plan_s"].Value*1e9, m["rach.rx"].Value))
	set("engine.active_ratio", ratio(m["engine.active_slots"].Value, m["engine.total_slots"].Value))
	if m["experiments.jobs"].Value > 0 {
		set("experiments.cpu_util", ratio(m["go.cpu_s"].Value, m["trace.parallelism"].Value*m["trace.wall_s"].Value))
	}
}

// printLayers prints the per-layer split: the self times as shares of the
// workers' wall time, then every metric.
func printLayers(workload string, seed int64, traced int, m map[string]metric) {
	par, wall := m["trace.parallelism"].Value, m["trace.wall_s"].Value
	fmt.Printf("workload %s  seed %d  traced ops %d  wall %.4f s × %g worker(s)  trace overhead %.4f\n",
		workload, seed, traced, wall, par, m["trace.overhead"].Value)
	total := 0.0
	for _, name := range selfTimes {
		v := m[name].Value
		total += v
		fmt.Printf("  self %-26s %10.4f s %6.1f%%\n", name, v, 100*v/(par*wall))
	}
	fmt.Printf("  self %-26s %10.4f s %6.1f%%\n", "total", total, 100*total/(par*wall))
	fmt.Printf("  ratios: rach.plan_ns_per_rx %.1f ns = engine.plan_s %.4f s / rach.rx %.0f; engine.active_ratio %.4f = %.0f / %.0f slots; experiments.cpu_util %.3f = go.cpu_s %.3f s / (%g × %.4f s)\n",
		m["rach.plan_ns_per_rx"].Value, m["engine.plan_s"].Value, m["rach.rx"].Value,
		m["engine.active_ratio"].Value, m["engine.active_slots"].Value, m["engine.total_slots"].Value,
		m["experiments.cpu_util"].Value, m["go.cpu_s"].Value, par, wall)
	for _, d := range layerMetrics {
		fmt.Printf("  %-30s %.6g %s\n", d.name, m[d.name].Value, d.unit)
	}
}
