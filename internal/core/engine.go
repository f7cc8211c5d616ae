package core

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/asyncnet"
	"repro/internal/faults"
	"repro/internal/oscillator"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Run-engine selection and shared scaffolding. Three engines drive a run,
// all bit-identical (the differential suites in parallel_test.go,
// shard_test.go and eventengine_test.go pin it):
//
//   - the sequential reference loop (loop.go), stepping every oscillator
//     every slot — the executable spec;
//   - the spatially sharded slot engine (shardengine.go), stepping every
//     slot but only the shards with a fire due, optionally fanning shard
//     work over the pool below — the deterministic-parallelism recipe
//     internal/firefly proves for the optimizer (frozen snapshot +
//     per-entity streams, after Husselmann & Hawick's GPU formulation);
//   - the event engine (eventengine.go), skipping inert slots entirely.
//
// Every random draw comes from a stream owned by one device (or a shared
// stream consumed only in sequential steps, in reference order), so no
// result depends on worker scheduling.

// task is one contiguous shard of work dispatched to the pool.
type task struct {
	fn     func(worker, lo, hi int)
	worker int
	lo, hi int
	wg     *sync.WaitGroup
}

// workerPool is a persistent pool of goroutines executing range shards.
// Keeping the goroutines alive across slots avoids per-slot spawn cost on
// the hot path; close releases them.
type workerPool struct {
	workers int
	tasks   chan task
}

func newWorkerPool(workers int) *workerPool {
	p := &workerPool{workers: workers, tasks: make(chan task)}
	for w := 0; w < workers; w++ {
		go func() {
			for t := range p.tasks {
				t.fn(t.worker, t.lo, t.hi)
				t.wg.Done()
			}
		}()
	}
	return p
}

// run splits [0, n) into one contiguous shard per worker (shard w covers
// [w*chunk, (w+1)*chunk)) and blocks until every shard completes — the
// phase barrier. Shard index = worker index, so per-worker accumulators
// concatenated in worker order preserve item order.
func (p *workerPool) run(n int, fn func(worker, lo, hi int)) {
	var wg sync.WaitGroup
	chunk := (n + p.workers - 1) / p.workers
	for w := 0; w < p.workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		p.tasks <- task{fn: fn, worker: w, lo: lo, hi: hi, wg: &wg}
	}
	wg.Wait()
}

func (p *workerPool) close() { close(p.tasks) }

// engine drives stepSlot for one protocol run — sequentially, sharded over
// a worker pool per Config.Workers, or event-driven per Config.Engine.
// Protocols build one engine per run and must close it to release the pool
// goroutines.
type engine struct {
	env     *Env
	pool    *workerPool
	ev      *eventEngine  // non-nil when Config.Engine selects EngineEvent
	sh      *shardEngine  // non-nil when the run slot-steps with spatial shards
	service func(int) int // sender -> service tag, hoisted off the hot path

	// flt is the compiled fault schedule (nil disables the layer); the
	// cached fltFilters flag keeps the per-delivery drop check off the hot
	// path for plans with neither outages, partitions nor loss.
	flt        *faults.Injector
	fltFilters bool

	// net is the bounded-asynchrony message queue (nil without an active
	// adversary): every wave's resolved deliveries cycle through it, and
	// slots with a delayed delivery due run a wave even with no local
	// fire. nil costs one pointer check per wave. echo carries absorption
	// echoes between waves; every stepping path (sequential, sharded and
	// event) shares this one buffer, so it survives adaptive-engine
	// handoffs and checkpoints capture it in one place. It stays nil — like
	// every other adversary cost — on the degenerate path.
	net  *asyncnet.Queue
	echo *echoState

	// rs caches Config.RunStats (nil = disabled): the engines' timing
	// probes cost one nil check each when off, and only monotonic-clock
	// reads when on — never an RNG draw or a reordering, so trajectories
	// are identical either way.
	rs *telemetry.RunStats

	// Telemetry probe hooks, set by the protocol before its loop starts:
	// fragFn reports the current fragment/component count, protoTx the
	// control traffic the protocol charges outside the transport (FST join
	// handshakes, ST RACH2 merges, BS uplink reports). Both are read only
	// at sampling boundaries, never on the per-slot hot path.
	fragFn  func() int
	protoTx func() uint64
	// repairFn reports the protocol's completed self-healing rounds for
	// the telemetry sample (nil = 0).
	repairFn func() int
	// phasesBuf is the reusable alive-phase snapshot sampling reads.
	phasesBuf []float64

	// Slot accounting for the active/total ratio the event engine reports:
	// activeSlots counts stepSlot calls, totalSlots the span the run
	// covered (they coincide for the slot engines).
	activeSlots uint64
	totalSlots  uint64
	lastSlot    units.Slot

	// prefixDone latches after the one shared-prefix capture (wantsPrefix).
	prefixDone bool

	// Slot-level reused buffers: the merged fired list handed back to the
	// protocol loop (valid until the next stepSlot), and two ping-pong wave
	// buffers — the cascade reads wave w-1 while filling wave w, so two
	// buffers alternate without aliasing. Shared by the sequential and
	// sharded engines (only one is ever active).
	firedAll []int
	waves    [2][]int

	// auto is the adaptive engine's decision state (nil unless
	// Config.Engine == EngineAuto).
	auto *autoState
}

// The adaptive engine decides every autoDecidePeriods periods: if fewer than
// autoToEventBelow of the window's slots were eventful (saw at least one
// fire) it hands the run to the event engine; if more than autoToSlotAbove
// were, it hands it back to the slot stepper. The metric is mode-independent
// — eventful slots are the slots both engines must step anyway — and the
// handoff reuses the checkpoint/restore state transfer (rebuild the fire
// queue from oscillator state, or materialize every phase), so switching is
// trajectory-preserving and auto results are bit-identical to both pure
// engines. The hysteresis gap keeps a run that hovers near one threshold
// from thrashing between modes.
const (
	autoDecidePeriods = 4
	autoToEventBelow  = 0.25
	autoToSlotAbove   = 0.75
)

// autoState tracks the adaptive engine's observation window: the slot the
// window opened at, the next decision boundary (folded into the event
// horizon so it is always stepped), and the eventful-slot count so far.
type autoState struct {
	windowStart units.Slot
	decideAt    units.Slot
	every       units.Slot
	eventful    uint64
}

// engineWorkers resolves the Workers knob: <0 means one per CPU, 0/1 means
// sequential, and the count never exceeds the device count.
func engineWorkers(cfg Config) int {
	w := cfg.Workers
	if w < 0 {
		w = runtime.NumCPU()
	}
	if w > cfg.N {
		w = cfg.N
	}
	if w < 1 {
		w = 1
	}
	return w
}

// newEngine builds the run engine for env. Config.Engine == EngineEvent
// selects the event-driven engine (always single-threaded). Otherwise the
// slot path is chosen by the Shards and Workers knobs: an explicit Shards
// count forces the spatially sharded engine; Shards == 0 with Workers
// requesting parallelism derives a shard count from the device count (small
// runs fall back to the sequential reference automatically — the per-shard
// scheduling overhead only pays above a few hundred devices); Workers 0/1
// with Shards 0 runs the sequential reference. A worker pool is only spun
// up for more than one worker when the transport's channel draws are
// order-independent (per-sender streams or a stateless link sampler);
// shared-stream transports run the sharded loops inline, which preserves
// draw order.
func newEngine(env *Env) *engine {
	e := &engine{env: env, flt: env.Faults, rs: env.Cfg.RunStats, net: env.Net}
	e.fltFilters = e.flt != nil && e.flt.Filters()
	if e.net != nil {
		e.echo = newEchoState(len(env.Devices))
	}
	e.service = func(sender int) int { return int(env.Devices[sender].Service) }
	if env.Cfg.Engine == EngineEvent {
		e.ev = newEventEngine(e)
		return e
	}
	if env.Cfg.Engine == EngineAuto {
		every := units.Slot(autoDecidePeriods * env.Cfg.PeriodSlots)
		e.auto = &autoState{every: every, decideAt: every}
	}
	w := engineWorkers(env.Cfg)
	if w > 1 && env.Transport.SenderStreams == nil && env.Transport.LinkSampler == nil {
		w = 1 // shared-stream draws are order-dependent: inline only
	}
	shards := env.Cfg.Shards
	if shards == 0 && env.Cfg.Workers != 0 && env.Cfg.Workers != 1 {
		shards = autoShardCount(env.Cfg.N, w)
	}
	if shards > 0 {
		if w > 1 {
			e.pool = newWorkerPool(w)
		}
		e.sh = newShardEngine(e, shards)
		env.Transport.ReorderLinkIndex(e.sh.sm.order)
	}
	return e
}

// close releases the pool goroutines (no-op for a sequential engine).
func (e *engine) close() {
	if e.pool != nil {
		e.pool.close()
	}
}

// stepSlot advances the whole network one slot, dispatching to the
// sequential loop, the sharded phases or the event engine's catch-up step.
// All three produce identical results; the differential tests in
// parallel_test.go and eventengine_test.go pin that.
func (e *engine) stepSlot(slot units.Slot, couples couplingRule, opsPerPulse uint64, ops *uint64) []int {
	e.activeSlots++
	if slot > e.lastSlot {
		e.totalSlots += uint64(slot - e.lastSlot)
		e.lastSlot = slot
	}
	var fired []int
	switch {
	case e.ev != nil:
		fired = e.ev.step(slot, couples, opsPerPulse, ops)
		e.rs.SlotStepped(telemetry.PathEvent)
	case e.sh != nil:
		fired = e.sh.step(slot, couples, opsPerPulse, ops)
		e.rs.SlotStepped(telemetry.PathShard)
	default:
		fired = e.stepSequential(slot, couples, opsPerPulse, ops)
		e.rs.SlotStepped(telemetry.PathSeq)
	}
	if e.auto != nil {
		if len(fired) > 0 {
			e.auto.eventful++
		}
		if slot >= e.auto.decideAt {
			e.autoDecide(slot)
		}
	}
	// Telemetry probes ride behind a nil check so the disabled path stays
	// on the measured steady state. Sampling only reads state the slot
	// already settled — no RNG draw, no reordering — and materializes lazy
	// phases first, which is trajectory-preserving on the event engine.
	if t := e.env.Cfg.Telemetry; t != nil {
		t.SlotStepped()
		if t.WantsSample(slot) {
			e.materializeAllAt(slot)
			t.Record(e.sample(slot))
		}
	}
	return fired
}

// sample takes one telemetry probe reading at slot: synchrony measures over
// the alive phases, discovery coverage, the protocol's fragment count and
// the cumulative traffic tallies. Runs only at sampling boundaries.
func (e *engine) sample(slot units.Slot) telemetry.Sample {
	env := e.env
	buf := e.phasesBuf[:0]
	for i, d := range env.Devices {
		if env.Alive[i] {
			buf = append(buf, d.Osc.Phase)
		}
	}
	e.phasesBuf = buf
	frags := 0
	if e.fragFn != nil {
		frags = e.fragFn()
	}
	var extra uint64
	if e.protoTx != nil {
		extra = e.protoTx()
	}
	repairs := 0
	if e.repairFn != nil {
		repairs = e.repairFn()
	}
	tc := env.Transport.Counters()
	return telemetry.Sample{
		Slot:        slot,
		OrderParam:  oscillator.OrderParameter(buf),
		PhaseSpread: oscillator.PhaseSpread(buf),
		Links:       countDiscoveredLinks(env),
		Fragments:   frags,
		RachTx:      tc.TotalTx() + extra,
		Collisions:  env.Transport.Collisions(),
		Alive:       len(buf),
		Repairs:     repairs,
	}
}

// slotHorizonNone is nextStep's "no event left" sentinel; it compares
// larger than any run bound, so min-folding protocol timers over it works
// unchanged.
const slotHorizonNone = units.Slot(1<<63 - 1)

// nextStep returns the next slot the engine must step after `after`. The
// slot engines step every slot; the event engine returns its conservative
// next-event horizon — the earliest scheduled oscillator fire or progress-
// trace boundary. Protocols min-fold their own timers (RACH join rounds,
// merge boundaries, churn) on top, so every slot in between is provably
// inert: no device fires (the fire queue is exact), no RNG stream is
// consumed (only non-empty fire waves draw), and no protocol or trace hook
// runs.
func (e *engine) nextStep(after units.Slot) units.Slot {
	next := after + 1
	if e.ev != nil {
		next = e.ev.nextAfter(after)
		// The adaptive engine must step its decision boundaries even when
		// every device sleeps past them.
		if e.auto != nil && e.auto.decideAt > after && e.auto.decideAt < next {
			next = e.auto.decideAt
		}
	}
	// Fault-action boundaries fold into the horizon like telemetry
	// sampling boundaries do: the event engine must step the slot a
	// crash/recover/join/jump is scheduled at even if no fire lands there.
	if e.flt != nil {
		if at, ok := e.flt.NextBoundary(after); ok && at < next {
			next = at
		}
	}
	// In-flight adversary deliveries fold like fault boundaries: the
	// event engine must step the slot a delayed pulse lands in even when
	// no oscillator fires there.
	if e.net != nil {
		if at, ok := e.net.NextDue(after); ok && at < next {
			next = at
		}
	}
	// Checkpoint boundaries fold the same way, so every engine steps —
	// and snapshots — the very same slots.
	if ce := e.env.Cfg.CheckpointEvery; ce > 0 {
		if at := (after/ce + 1) * ce; at < next {
			next = at
		}
	}
	return next
}

// autoDecide closes the adaptive engine's observation window at slot and
// switches mode when the eventful-slot ratio crossed a threshold.
func (e *engine) autoDecide(slot units.Slot) {
	a := e.auto
	if span := slot - a.windowStart; span > 0 {
		ratio := float64(a.eventful) / float64(span)
		if e.ev == nil && ratio < autoToEventBelow {
			// Slot → event: every oscillator is materialized at slot (the
			// slot stepper just stepped it), so the fire queue rebuilds
			// exactly — the same handoff a checkpoint restore performs.
			e.ev = newEventEngine(e)
		} else if e.ev != nil && ratio > autoToSlotAbove {
			// Event → slot: materialize every lazy phase at slot, then the
			// slot stepper takes over seamlessly. A sharded stepper's cached
			// predictions went stale while the fire queue drove the run, so
			// rebuild them from the materialized state — the same refresh a
			// checkpoint restore performs.
			e.ev.materializeAll(slot)
			e.ev = nil
			if e.sh != nil {
				e.sh.rebuild()
			}
		}
	}
	a.windowStart = slot
	a.eventful = 0
	a.decideAt = (slot/a.every + 1) * a.every
}

// wantsCheckpoint reports whether the protocol loop should capture a
// checkpoint after fully processing slot.
func (e *engine) wantsCheckpoint(slot units.Slot) bool {
	ce := e.env.Cfg.CheckpointEvery
	return ce > 0 && e.env.Cfg.OnCheckpoint != nil && slot%ce == 0
}

// runCheckpoint captures a checkpoint and hands it to the OnCheckpoint
// hook, attributing the capture+hook wall time when runstats is enabled.
// The capture runs either way — timing observes it, never gates it.
func (e *engine) runCheckpoint(capture func() *snapshot.State) {
	var t0 time.Time
	if e.rs != nil {
		t0 = time.Now()
	}
	e.env.Cfg.OnCheckpoint(capture())
	if e.rs != nil {
		e.rs.AddCheckpoint(time.Since(t0))
	}
}

// wantsPrefix reports whether the protocol loop should hand out the shared-
// prefix capture after fully processing slot, given the slot it will step
// next. The capture lands on the last naturally stepped slot at or before
// PrefixSlot — no boundary is ever folded into the horizon for it, so arming
// the prefix hook cannot perturb the trajectory or the ActiveSlots
// accounting. Fires at most once per run.
func (e *engine) wantsPrefix(slot, next units.Slot) bool {
	p := e.env.Cfg.PrefixSlot
	if p <= 0 || e.env.Cfg.OnPrefix == nil || e.prefixDone {
		return false
	}
	if slot > p || next <= p {
		return false
	}
	e.prefixDone = true
	return true
}

// materialize catches device i's lazily advanced oscillator up to slot,
// before a protocol hook reads (or overwrites) its Phase. No-op on the
// sequential engine, whose oscillators are always current; the event and
// sharded engines keep phases lazily materialized.
func (e *engine) materialize(i int, slot units.Slot) {
	if e.ev != nil || e.sh != nil {
		e.env.Devices[i].Osc.AdvanceTo(int64(slot))
	}
}

// phaseWritten records that a protocol hook overwrote device i's Phase at
// slot (sync-word adoption, the BS timing broadcast): the oscillator is
// rebased there and its scheduled fire recomputed. No-op on the sequential
// engine, where Advance re-detects external writes every slot.
func (e *engine) phaseWritten(i int, slot units.Slot) {
	if e.ev == nil && e.sh == nil {
		return
	}
	e.env.Devices[i].Osc.Rebase(int64(slot))
	if e.ev != nil {
		e.ev.reschedule(i)
	} else {
		e.sh.refreshLower(i)
	}
}

// deschedule removes device id from the active engine's fire schedule after
// it powers off.
func (e *engine) deschedule(id int) {
	if e.ev != nil {
		e.ev.fq.Remove(id)
	} else if e.sh != nil {
		e.sh.drop(id)
	}
}

// rescheduleDevice recomputes device id's scheduled fire from its current
// oscillator state (recovery/join; the oscillator must already be rebased).
func (e *engine) rescheduleDevice(id int) {
	if e.ev != nil {
		e.ev.reschedule(id)
	} else if e.sh != nil {
		e.sh.revive(id)
	}
}

// dropFailed prunes powered-off devices from the fire schedule after churn.
// Stale entries would only cost empty catch-up steps (dead devices are
// skipped on pop), but pruning keeps the event horizon tight.
func (e *engine) dropFailed() {
	if e.ev != nil {
		for i, alive := range e.env.Alive {
			if !alive {
				e.ev.fq.Remove(i)
			}
		}
	} else if e.sh != nil {
		e.sh.dropFailedAll()
	}
}

// resyncAll rebases every alive oscillator at slot and rebuilds the fire
// schedule — for the Centralized protocol's timing broadcast, which
// reassigns every phase after an uplink-collection gap the run never
// stepped through.
func (e *engine) resyncAll(slot units.Slot) {
	if e.ev != nil {
		e.ev.resyncAll(slot)
	} else if e.sh != nil {
		e.sh.resync(slot)
	}
}

// materializeAllAt catches every alive oscillator up to slot without
// stepping it — phase snapshots (env.Phases, post-run inspection) must see
// the same values the slot engines leave behind.
func (e *engine) materializeAllAt(slot units.Slot) {
	if e.ev != nil {
		e.ev.materializeAll(slot)
	} else if e.sh != nil {
		e.sh.materializeAll(slot)
	}
}

// finish closes the run at finalSlot: oscillators materialize and the slot
// accounting extends to the covered span.
func (e *engine) finish(finalSlot units.Slot) {
	if finalSlot > e.lastSlot {
		e.totalSlots += uint64(finalSlot - e.lastSlot)
		e.lastSlot = finalSlot
	}
	e.materializeAllAt(finalSlot)
}

// slotStats reports how many slots the engine stepped (active) out of the
// span the run covered (total). The slot engines step everything; the event
// engine's ratio is the measured sparsity its speedup comes from.
func (e *engine) slotStats() (active, total uint64) { return e.activeSlots, e.totalSlots }
