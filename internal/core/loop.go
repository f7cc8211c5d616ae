package core

import (
	"time"

	"repro/internal/device"
	"repro/internal/rach"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
)

// emit forwards one structured protocol event to the EventTrace hook when
// configured. Events fire only at slots the run stepped anyway, so the hook
// is RNG-neutral by construction.
func (c *Config) emit(ev trace.Event) {
	if c.EventTrace != nil {
		c.EventTrace(ev)
	}
}

// couplingRule decides whether a receiver's oscillator takes a pulse from a
// sender. FST couples on everything heard; ST couples along tree edges.
type couplingRule func(sender, receiver int) bool

// stepSequential advances the whole network one slot: every oscillator
// ramps, the devices that fire broadcast a PS on RACH1 in the same slot, and
// the transport resolves same-slot same-codec collisions with the capture
// model before delivering. Receivers record decoded PSs for discovery and —
// when the coupling rule admits the sender — apply the PRC. Pulse-triggered
// fires (absorption) transmit in a follow-up wave within the same slot; the
// per-oscillator refractory window bounds every device to one fire per
// slot, so the cascade terminates.
//
// opsPerPulse is charged once per delivered pulse and models the brightness
// ranking work of Algorithm 3 (O(n) for the basic scan, O(log n) for the
// ordered structure). The returned slice lists the devices that fired; it is
// engine-owned and valid until the next step — the fired list and the
// cascade's ping-pong wave buffers are reused across slots, so the
// steady-state loop allocates nothing.
func (e *engine) stepSequential(slot units.Slot, couples couplingRule, opsPerPulse uint64, ops *uint64) []int {
	env := e.env
	// Runstats timing chains timestamps: each measured interval ends where
	// the next begins, so an instrumented slot pays one clock read per
	// phase boundary and the disabled path one nil check each.
	rs := e.rs
	var t0 time.Time
	if rs != nil {
		t0 = time.Now()
	}
	fired := e.firedAll[:0]
	for i, d := range env.Devices {
		if !env.Alive[i] {
			continue
		}
		if d.Osc.Advance(int64(slot)) {
			fired = append(fired, i)
		}
	}
	if rs != nil {
		t1 := time.Now()
		rs.AddPhase(telemetry.PhaseAdvance, t1.Sub(t0))
		t0 = t1
	}
	// With a message adversary, a slot with no local fire still runs a
	// delivery wave when an in-flight pulse lands here, and absorption
	// echoes collected from one wave transmit with the next; without one
	// the loop shape (and the nil-queue pass-through) is the reference's.
	wave := fired
	waveBuf := 0
	net := e.net
	ec := e.echo
	echoCur := 0
	for len(wave) > 0 || (net != nil && (ec.pending(echoCur) || net.HasDue(slot))) {
		buf := waveBuf
		waveBuf ^= 1
		next := e.waves[buf][:0]
		senders := wave
		if net != nil {
			senders = ec.senders(wave, echoCur)
		}
		var dels []rach.Delivery
		if len(senders) > 0 {
			dels = env.Transport.BroadcastAll(senders, rach.RACH1, rach.KindPulse, e.service, slot)
			if net != nil {
				ec.stamp(dels, echoCur)
			}
			if e.fltFilters {
				dels = filterFaultDeliveries(e.flt, dels, slot)
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
		e.waves[buf] = next
		fired = append(fired, next...)
		wave = next
		echoCur = 1 - echoCur
	}
	e.firedAll = fired
	if env.Cfg.FireTrace != nil {
		for _, f := range fired {
			env.Cfg.FireTrace(slot, f)
		}
	}
	if env.Cfg.ProgressTrace != nil && env.Cfg.ProgressEvery > 0 && slot%env.Cfg.ProgressEvery == 0 {
		env.Cfg.ProgressTrace(slot)
	}
	return fired
}

// countDiscoveredLinks tallies the directed neighbour-table entries across
// alive devices — a powered-off device's stale table is not discovery
// coverage the network currently holds.
func countDiscoveredLinks(env *Env) int {
	total := 0
	for i, d := range env.Devices {
		if !env.Alive[i] {
			continue
		}
		total += d.Peers.Len()
	}
	return total
}

// log2ceil returns ceil(log2(n)), minimum 1 — the per-pulse ranking cost in
// the ordered-tree structure.
func log2ceil(n int) uint64 {
	var b uint64 = 1
	for v := 2; v < n; v *= 2 {
		b++
	}
	return b
}
