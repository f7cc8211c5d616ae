package core

import (
	"time"

	"repro/internal/asyncnet"
	"repro/internal/device"
	"repro/internal/eventsim"
	"repro/internal/faults"
	"repro/internal/rach"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// The event-driven run engine. The Mirollo–Strogatz dynamics are piecewise
// linear between pulses, so an oscillator's next firing slot is computable
// analytically from its phase, rate and period (oscillator.NextFire) — yet
// the slot loop still touches all n oscillators every slot just to ramp
// them. This engine instead keeps every phase lazily materialized at the
// slot it was last involved in and drives the run from a next-fire priority
// queue (eventsim.FireQueue), stepping only the slots where something can
// happen:
//
//   - a scheduled oscillator fire (the queue is exact, not a bound);
//   - a protocol timer — FST join round, ST merge boundary, churn — which
//     the protocol loops min-fold over nextAfter's horizon;
//   - a ProgressTrace boundary (callbacks may read phase snapshots, so
//     every oscillator materializes first).
//
// Slots in between are provably inert: no fire can occur before the queue's
// head (NextFire evaluates the exact segment arithmetic Advance steps
// with), empty slots draw nothing from any RNG stream in the slot loop
// either (BroadcastAll only runs for non-empty waves), and no trace or
// protocol hook falls in them. Skipping them is therefore invisible: fire
// sequences, RNG draw order, counters and final phases are bit-identical to
// the sequential reference, which eventengine_test.go pins differentially
// across protocols, sizes and seeds.
//
// Within a stepped slot the engine replays the reference cascade exactly:
// queue entries for the slot pop in (slot, device id) order — the order the
// slot loop appends same-slot fires in — and coupled receivers materialize
// via AdvanceTo before their OnPulse, which cannot itself cross a fire
// (their scheduled fire would have been popped this slot already).
type eventEngine struct {
	env     *Env
	service func(int) int
	fq      *eventsim.FireQueue

	// Fault-layer delivery filtering, mirroring the slot engine's fields.
	flt        *faults.Injector
	fltFilters bool

	// net mirrors engine.net (nil without an active message adversary);
	// ec is the engine's shared absorption-echo buffer (nil alongside net).
	net *asyncnet.Queue
	ec  *echoState

	// rs mirrors engine.rs (nil = runstats disabled).
	rs *telemetry.RunStats

	// Reused buffers, mirroring the sequential engine's.
	fired []int
	due   []int
	waves [2][]int

	// Devices whose oscillator state changed this slot (fired or coupled):
	// their next-fire predictions are recomputed after the cascade
	// settles. dirtySlot is a per-device stamp deduplicating marks within
	// a slot (slots start at 1, so the zero value never collides).
	dirty     []int
	dirtySlot []units.Slot
}

func newEventEngine(e *engine) *eventEngine {
	env := e.env
	ev := &eventEngine{
		env:        env,
		service:    e.service,
		fq:         eventsim.NewFireQueue(len(env.Devices)),
		dirtySlot:  make([]units.Slot, len(env.Devices)),
		flt:        env.Faults,
		fltFilters: env.Faults != nil && env.Faults.Filters(),
		net:        env.Net,
		ec:         e.echo,
		rs:         e.rs,
	}
	ids := make([]int, 0, len(env.Devices))
	ats := make([]units.Slot, 0, len(env.Devices))
	for i, d := range env.Devices {
		if !env.Alive[i] {
			continue
		}
		if at, ok := d.Osc.NextFire(); ok {
			ids = append(ids, i)
			ats = append(ats, units.Slot(at))
		}
	}
	ev.fq.Build(ids, ats)
	return ev
}

// nextAfter returns the engine's conservative next-event horizon after the
// given slot: the earliest scheduled fire, progress-trace boundary or
// telemetry sampling boundary, or slotHorizonNone when none remains.
// Telemetry boundaries are stepped explicitly — like ProgressTrace ones —
// so probes sample materialized phases; the extra stepped slots are inert
// (no fire, no RNG draw) and visible only in ActiveSlots.
func (ev *eventEngine) nextAfter(after units.Slot) units.Slot {
	next := slotHorizonNone
	if _, at, ok := ev.fq.Peek(); ok {
		next = at
	}
	cfg := ev.env.Cfg
	if cfg.ProgressTrace != nil && cfg.ProgressEvery > 0 {
		if t := (after/cfg.ProgressEvery + 1) * cfg.ProgressEvery; t < next {
			next = t
		}
	}
	if t, ok := cfg.Telemetry.NextSampleAfter(after); ok && t < next {
		next = t
	}
	return next
}

// step fast-forwards the network to slot and runs it: scheduled fires pop
// from the queue in device-id order, the fire wave broadcasts and cascades
// exactly as in the sequential loop, and every touched oscillator is
// rescheduled. Fires scheduled before slot mean the caller skipped a
// non-inert slot — a contract violation worth failing loud on.
func (ev *eventEngine) step(slot units.Slot, couples couplingRule, opsPerPulse uint64, ops *uint64) []int {
	env := ev.env
	rs := ev.rs
	var t0 time.Time
	var depth int
	if rs != nil {
		t0 = time.Now()
		depth = ev.fq.Len()
	}
	fired := ev.fired[:0]
	if _, at, ok := ev.fq.Peek(); ok && at < slot {
		panic("core: event engine stepped past a scheduled fire")
	}
	// Drain every entry due this slot in one batched pop; PopAllAt returns
	// them in ascending device id, the reference fired-list order.
	ev.due = ev.fq.PopAllAt(slot, ev.due[:0])
	for _, id := range ev.due {
		if !env.Alive[id] {
			continue // powered off after scheduling; dropFailed missed it
		}
		if !env.Devices[id].Osc.AdvanceTo(int64(slot)) {
			panic("core: scheduled fire did not happen")
		}
		fired = append(fired, id)
		ev.markDirty(id, slot)
	}
	if rs != nil {
		rs.ObserveQueue(depth, len(ev.due))
		t1 := time.Now()
		rs.AddPhase(telemetry.PhaseAdvance, t1.Sub(t0))
		t0 = t1
	}
	// Delayed in-flight deliveries run a wave even on slots with no fire;
	// nextStep folds the queue's horizon so such slots are always stepped.
	// Absorption echoes collected from one wave transmit with the next.
	wave := fired
	waveBuf := 0
	net := ev.net
	ec := ev.ec
	echoCur := 0
	for len(wave) > 0 || (net != nil && (ec.pending(echoCur) || net.HasDue(slot))) {
		buf := waveBuf
		waveBuf ^= 1
		next := ev.waves[buf][:0]
		senders := wave
		if net != nil {
			senders = ec.senders(wave, echoCur)
		}
		var dels []rach.Delivery
		if len(senders) > 0 {
			dels = env.Transport.BroadcastAll(senders, rach.RACH1, rach.KindPulse, ev.service, slot)
			if net != nil {
				ec.stamp(dels, echoCur)
			}
			if ev.fltFilters {
				dels = filterFaultDeliveries(ev.flt, dels, slot)
			}
		}
		if net != nil {
			dels = net.Cycle(dels, slot)
			ec.reset(1 - echoCur)
		}
		if rs != nil {
			t1 := time.Now()
			rs.AddPhase(telemetry.PhasePlan, t1.Sub(t0))
			t0 = t1
		}
		for _, del := range dels {
			if !env.Alive[del.To] {
				continue // powered-off receivers hear nothing
			}
			recv := env.Devices[del.To]
			recv.ObservePS(del.Msg.From, del.Msg.RSSI, device.Service(del.Msg.Service))
			*ops += opsPerPulse
			if !couples(del.Msg.From, del.To) {
				continue
			}
			recv.Osc.AdvanceTo(int64(slot))
			ev.markDirty(del.To, slot)
			if recv.Osc.OnPulseSent(int64(del.Msg.Slot), int64(slot)) {
				next = append(next, del.To)
			} else if net != nil {
				if ep, ok := recv.Osc.TakeEcho(); ok {
					ec.collect(1-echoCur, del.To, units.Slot(ep))
				}
			}
		}
		if rs != nil {
			t1 := time.Now()
			rs.AddPhase(telemetry.PhaseDeliver, t1.Sub(t0))
			t0 = t1
		}
		ev.waves[buf] = next
		fired = append(fired, next...)
		wave = next
		echoCur = 1 - echoCur
	}
	ev.fired = fired
	for _, id := range ev.dirty {
		if env.Alive[id] {
			ev.reschedule(id)
		}
	}
	ev.dirty = ev.dirty[:0]
	if rs != nil {
		rs.AddPhase(telemetry.PhaseRefresh, time.Since(t0))
	}
	if env.Cfg.FireTrace != nil {
		for _, f := range fired {
			env.Cfg.FireTrace(slot, f)
		}
	}
	if env.Cfg.ProgressTrace != nil && env.Cfg.ProgressEvery > 0 && slot%env.Cfg.ProgressEvery == 0 {
		ev.materializeAll(slot)
		env.Cfg.ProgressTrace(slot)
	}
	return fired
}

func (ev *eventEngine) markDirty(id int, slot units.Slot) {
	if ev.dirtySlot[id] == slot {
		return
	}
	ev.dirtySlot[id] = slot
	ev.dirty = append(ev.dirty, id)
}

// reschedule recomputes device id's queue entry from its oscillator's
// current state; oscillators that can never fire again leave the queue.
func (ev *eventEngine) reschedule(id int) {
	if !ev.env.Alive[id] {
		ev.fq.Remove(id)
		return
	}
	if at, ok := ev.env.Devices[id].Osc.NextFire(); ok {
		ev.fq.Set(id, units.Slot(at))
	} else {
		ev.fq.Remove(id)
	}
}

// materializeAll catches every alive oscillator up to slot, for hooks and
// post-run readers that snapshot phases. No scheduled fire can predate the
// horizon being stepped, so catching up never crosses one.
func (ev *eventEngine) materializeAll(slot units.Slot) {
	for i, d := range ev.env.Devices {
		if !ev.env.Alive[i] {
			continue
		}
		d.Osc.AdvanceTo(int64(slot))
	}
}

// resyncAll pins every alive oscillator's current Phase at slot (no ramping
// through the skipped span) and rebuilds the fire schedule from scratch;
// dead devices leave the queue.
func (ev *eventEngine) resyncAll(slot units.Slot) {
	for i, d := range ev.env.Devices {
		if !ev.env.Alive[i] {
			ev.fq.Remove(i)
			continue
		}
		d.Osc.Rebase(int64(slot))
		ev.reschedule(i)
	}
}
