package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/asyncnet"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// outcome is what one operation returns to the measurement loop.
type outcome struct {
	wall        float64 // host seconds spent in the program's calls
	deviceSlots float64 // Σ N·slots simulated
	fingerprint string  // digest of the simulated statistics
	layers      layers  // per-layer metrics, traced operations only
}

// workload is one named benchmark input. setup builds the environments one
// operation needs and returns the seconds spent in core.NewEnv; run performs
// one operation, checks its outputs and, when tr is non-nil, traces it.
type workload struct {
	name  string
	setup func(seed int64) (float64, error)
	run   func(seed int64, tr *tracer) (outcome, error)
}

var workloads = map[string]*workload{
	"fig-sweep":  {"fig-sweep", figSetup, figRun},
	"st-large":   {"st-large", singleSetup(stLargeConfig), singleRun(stLargeConfig)},
	"st-sparse":  {"st-sparse", singleSetup(stSparseConfig), singleRun(stSparseConfig)},
	"chaos-ckpt": {"chaos-ckpt", singleSetup(chaosConfig), chaosRun},
}

func workloadNames() []string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// figSizes spans the FST/ST crossover up to the largest size whose FST run
// still fits several operations into one measured run.
var figSizes = []int{100, 200, 400, 700}

// figWorkers is the sweep's run-level pool: one worker per core of a
// two-core host.
const figWorkers = 2

// stLargeConfig is one dense ST run at n=2000 on two slot workers with
// automatic shards.
func stLargeConfig(seed int64) core.Config {
	cfg := core.PaperConfig(2000, seed)
	cfg.Workers = 2
	return cfg
}

// stSparseConfig is one ST run at n=1000 with the ProSe discovery period
// (10.24 s) on the event engine, where almost every slot is inert.
func stSparseConfig(seed int64) core.Config {
	cfg := core.PaperConfig(1000, seed)
	cfg.PeriodSlots = 10240
	cfg.Engine = core.EngineEvent
	return cfg
}

// chaosCrashAt is the slot of chaos-ckpt's crash wave, after convergence.
const chaosCrashAt = 3000

// chaosConfig is one ST run at n=400 under a message adversary (delay up to
// T/4 with reordering, 1% duplication), a crash wave of 20% of the devices
// and a checkpoint every 1000 slots.
func chaosConfig(seed int64) core.Config {
	cfg := core.PaperConfig(400, seed)
	cfg.JumpsPerCycle = 1 // asyncnet plans require a bounded jump budget
	cfg.Net = &asyncnet.Plan{Version: asyncnet.PlanSchema, MaxDelaySlots: cfg.PeriodSlots / 4, Reorder: true, DupRate: 0.01}
	plan := &faults.Plan{Version: faults.PlanSchema}
	for d := cfg.N - cfg.N/5; d < cfg.N; d++ {
		plan.Actions = append(plan.Actions, faults.Action{Kind: faults.KindCrash, At: chaosCrashAt, Device: d})
	}
	cfg.Faults = plan
	cfg.CheckpointEvery = 1000
	return cfg
}

// singleSetup times core.NewEnv on the workload's configuration.
func singleSetup(config func(int64) core.Config) func(int64) (float64, error) {
	return func(seed int64) (float64, error) {
		t0 := time.Now()
		_, err := core.NewEnv(config(seed))
		return time.Since(t0).Seconds(), err
	}
}

// singleRun is one ST run from core.NewEnv to its Result.
func singleRun(config func(int64) core.Config) func(int64, *tracer) (outcome, error) {
	return func(seed int64, tr *tracer) (outcome, error) {
		cfg := config(seed)
		var rs *telemetry.RunStats
		if tr != nil {
			rs = telemetry.NewRunStats()
			cfg.RunStats = rs
		}
		t0 := time.Now()
		root := tr.begin("op", "bench", -1)
		id := tr.begin("core.NewEnv", "core.setup", root)
		env, err := core.NewEnv(cfg)
		setup := tr.end(id)
		if err != nil {
			return outcome{}, err
		}
		id = tr.begin("Protocol.Run", "protocol", root)
		res := core.ST{}.Run(env)
		run := tr.end(id)
		tr.end(root)
		wall := time.Since(t0).Seconds()

		if err := checkRun(res, nil); err != nil {
			return outcome{}, err
		}
		out := outcome{wall: wall, deviceSlots: float64(res.N) * float64(res.TotalSlots), fingerprint: digest(fingerprintOf(res))}
		if tr != nil {
			l := layers{"setup.newenv_s": setup, "protocol.run_s": run, "trace.parallelism": 1}
			l.addEngine(rs)
			l.addResult(res)
			l["protocol.unattributed_s"] = run - l["engine.measured_s"]
			l["trace.unaccounted_s"] = wall - setup - run
			out.layers = l
		}
		return out, nil
	}
}

// checkpoint is one encoded snapshot kept by chaos-ckpt's checkpoint sink.
type checkpoint struct {
	slot int64
	data []byte
}

// chaosRun runs chaos-ckpt's faulted, adversarial run with every checkpoint
// encoded, then decodes the last pre-crash checkpoint and resumes it to the
// end. The resumed Result must equal the uninterrupted one.
func chaosRun(seed int64, tr *tracer) (outcome, error) {
	cfg := chaosConfig(seed)
	var rs, rsResume *telemetry.RunStats
	if tr != nil {
		rs, rsResume = telemetry.NewRunStats(), telemetry.NewRunStats()
		cfg.RunStats = rs
	}
	var cks []checkpoint
	var encErr error
	var encode float64
	bytesOut := 0
	runID := -1
	cfg.OnCheckpoint = func(st *snapshot.State) {
		id := tr.begin("snapshot.Encode", "snapshot", runID)
		data, err := snapshot.Encode(st)
		encode += tr.end(id)
		if err != nil && encErr == nil {
			encErr = err
		}
		bytesOut += len(data)
		cks = append(cks, checkpoint{st.Slot, data})
	}

	t0 := time.Now()
	root := tr.begin("op", "bench", -1)
	id := tr.begin("core.NewEnv", "core.setup", root)
	env, err := core.NewEnv(cfg)
	setup := tr.end(id)
	if err != nil {
		return outcome{}, err
	}
	runID = tr.begin("Protocol.Run", "protocol", root)
	res := core.ST{}.Run(env)
	run := tr.end(runID)
	if encErr != nil {
		return outcome{}, fmt.Errorf("encode checkpoint: %w", encErr)
	}
	var ck *checkpoint
	for i := range cks {
		if cks[i].slot < chaosCrashAt {
			ck = &cks[i]
		}
	}
	if ck == nil {
		return outcome{}, fmt.Errorf("no checkpoint before the crash wave at slot %d", chaosCrashAt)
	}
	id = tr.begin("snapshot.Decode", "snapshot", root)
	st, err := snapshot.Decode(ck.data)
	decode := tr.end(id)
	if err != nil {
		return outcome{}, err
	}
	rcfg := chaosConfig(seed)
	rcfg.CheckpointEvery = 0
	rcfg.Resume = st
	rcfg.RunStats = rsResume
	id = tr.begin("core.NewEnv", "core.setup", root)
	renv, err := core.NewEnv(rcfg)
	setup += tr.end(id)
	if err != nil {
		return outcome{}, err
	}
	id = tr.begin("Protocol.Run(resume)", "protocol", root)
	resumed := core.ST{}.Run(renv)
	resumeRun := tr.end(id)
	tr.end(root)
	wall := time.Since(t0).Seconds()

	if err := checkRun(res, env.Alive); err != nil {
		return outcome{}, err
	}
	if res.Repairs < 1 {
		return outcome{}, fmt.Errorf("crash wave at slot %d triggered no repair", chaosCrashAt)
	}
	fp := digest(fingerprintOf(res))
	if got := digest(fingerprintOf(resumed)); got != fp {
		return outcome{}, fmt.Errorf("run resumed from slot %d gives fingerprint %s, uninterrupted run %s", ck.slot, got, fp)
	}
	n := float64(res.N)
	out := outcome{wall: wall, deviceSlots: n*float64(res.TotalSlots) + n*float64(int64(res.TotalSlots)-ck.slot), fingerprint: fp}
	if tr != nil {
		l := layers{
			"setup.newenv_s":        setup,
			"protocol.run_s":        run + resumeRun,
			"snapshot.encode_s":     encode,
			"snapshot.bytes":        float64(bytesOut),
			"snapshot.decode_s":     decode,
			"snapshot.resume_run_s": resumeRun,
			"trace.parallelism":     1,
		}
		l.addEngine(rs)
		l.addEngine(rsResume)
		l.addResult(res)
		l["protocol.unattributed_s"] = l["protocol.run_s"] - l["engine.measured_s"] - l["snapshot.capture_s"]
		l["trace.unaccounted_s"] = wall - setup - run - resumeRun - decode
		out.layers = l
	}
	return out, nil
}

// figSetup times core.NewEnv for every deployment of one sweep operation.
func figSetup(seed int64) (float64, error) {
	total := 0.0
	for _, n := range figSizes {
		t0 := time.Now()
		if _, err := core.NewEnv(core.PaperConfig(n, seed)); err != nil {
			return 0, err
		}
		total += time.Since(t0).Seconds()
	}
	return total, nil
}

// sweepJob is one traced sweep job, as seen from the hooks RunSweep calls
// on the job's worker: Configure just before core.NewEnv, and the progress
// trace from the first stepped slot on.
type sweepJob struct {
	start, loop, last time.Time
	rs                *telemetry.RunStats
}

// jobResult is one sweep job's Result, collected through OnResult.
type jobResult struct {
	n     int
	proto string
	res   core.Result
}

// figRun is one experiments.RunSweep over figSizes with both protocols, one
// seed per size and a two-worker run-level pool. A fresh GeometryCache is
// passed in so its counters can be read; no result cache is attached.
func figRun(seed int64, tr *tracer) (outcome, error) {
	geom := core.NewGeometryCache()
	var mu sync.Mutex
	var results []jobResult
	var jobs []*sweepJob
	var doneSum float64 // Σ over jobs of OnResult time, seconds since t0
	var progress bytes.Buffer
	t0 := time.Now()
	opts := experiments.Options{
		Sizes:    figSizes,
		Seeds:    1,
		BaseSeed: seed,
		Workers:  figWorkers,
		Geometry: geom,
		OnResult: func(n int, proto string, res core.Result) {
			mu.Lock()
			defer mu.Unlock()
			results = append(results, jobResult{n, proto, res})
			if tr != nil {
				doneSum += time.Since(t0).Seconds()
			}
		},
	}
	if tr != nil {
		opts.Progress = &progress
		opts.Configure = func(cfg *core.Config) {
			j := &sweepJob{start: time.Now(), rs: telemetry.NewRunStats()}
			cfg.RunStats = j.rs
			cfg.ProgressEvery = 1
			cfg.ProgressTrace = func(units.Slot) {
				j.last = time.Now()
				if j.loop.IsZero() {
					j.loop = j.last
				}
			}
			mu.Lock()
			jobs = append(jobs, j)
			mu.Unlock()
		}
	}

	root := tr.begin("op", "bench", -1)
	id := tr.begin("experiments.RunSweep", "experiments", root)
	rows, err := experiments.RunSweep(opts)
	tr.end(id)
	tr.end(root)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return outcome{}, err
	}

	if want := 2 * len(figSizes); len(results) != want {
		return outcome{}, fmt.Errorf("sweep reported %d results, want %d", len(results), want)
	}
	for _, r := range rows {
		if r.ConvFST != 1 || r.ConvST != 1 {
			return outcome{}, fmt.Errorf("n=%d: ConvFST=%d ConvST=%d, want 1 each", r.N, r.ConvFST, r.ConvST)
		}
	}
	// The sweep appends results in worker-completion order, so compare the
	// sorted multiset of per-job fingerprints per (protocol, n).
	perPoint := map[string][]string{}
	deviceSlots := 0.0
	for _, r := range results {
		if err := checkRun(r.res, nil); err != nil {
			return outcome{}, fmt.Errorf("%s n=%d: %w", r.proto, r.n, err)
		}
		key := fmt.Sprintf("%s/%d", r.proto, r.n)
		perPoint[key] = append(perPoint[key], digest(fingerprintOf(r.res)))
		deviceSlots += float64(r.res.N) * float64(r.res.TotalSlots)
	}
	for _, fps := range perPoint {
		sort.Strings(fps)
	}
	out := outcome{wall: wall, deviceSlots: deviceSlots, fingerprint: digest(perPoint)}
	if tr == nil {
		return out, nil
	}

	l := layers{"trace.parallelism": figWorkers, "experiments.jobs": float64(len(jobs))}
	var startSum float64
	for _, j := range jobs {
		startSum += j.start.Sub(t0).Seconds()
		l["setup.newenv_s"] += j.loop.Sub(j.start).Seconds()
		l.addEngine(j.rs)
		tr.add("core.NewEnv+start", "core.setup", id, j.start, j.loop)
		tr.add("Protocol.Run(loop)", "protocol", id, j.loop, j.last)
	}
	for _, r := range results {
		l.addResult(r.res)
	}
	busy := doneSum - startSum // Σ over jobs of (OnResult − Configure)
	l["protocol.run_s"] = busy - l["setup.newenv_s"]
	l["protocol.unattributed_s"] = l["protocol.run_s"] - l["engine.measured_s"]
	l["experiments.idle_s"] = figWorkers*wall - busy
	hits, misses := geom.Stats()
	l["setup.geometry_hits"], l["setup.geometry_misses"] = float64(hits), float64(misses)
	tail, err := sweepTail(&progress)
	if err != nil {
		return outcome{}, err
	}
	l["experiments.tail_s"] = tail
	out.layers = l
	return out, nil
}

// sweepTail reads the sweep's progress events and returns the time from the
// second-last job completion to the last.
func sweepTail(progress *bytes.Buffer) (float64, error) {
	var done []int64
	sc := bufio.NewScanner(progress)
	for sc.Scan() {
		var ev experiments.ProgressEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return 0, fmt.Errorf("progress event: %w", err)
		}
		done = append(done, ev.ElapsedMS)
	}
	if len(done) < 2 {
		return 0, fmt.Errorf("%d progress events, want at least 2", len(done))
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	return float64(done[len(done)-1]-done[len(done)-2]) / 1e3, nil
}
