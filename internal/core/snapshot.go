// Checkpoint capture and restore. A checkpoint is taken after a stepped slot
// has fully settled (cascade, faults, protocol timers, telemetry), with lazy
// phases materialized first — materialization is exactly what the slot
// engine does every slot, so the captured state is engine-independent and a
// snapshot taken on one engine restores bit-identically into any other.
//
// A restore rebuilds the environment from config (re-running the
// deterministic setup draws), then overlays the saved mutable state; stream
// cursors are absolute positions counted from each stream's derived seed, so
// the re-run setup draws do not disturb them.

package core

import (
	"fmt"
	"sort"

	"repro/internal/device"
	"repro/internal/snapshot"
	"repro/internal/units"
)

// captureState builds the environment- and engine-level portion of a
// checkpoint at slot. The caller (the protocol loop) attaches its own
// protocol section and the Protocol tag before handing the state out.
func captureState(env *Env, eng *engine, slot units.Slot) *snapshot.State {
	eng.materializeAllAt(slot)
	st := &snapshot.State{
		Slot:    int64(slot),
		Seed:    env.Cfg.Seed,
		N:       env.Cfg.N,
		Streams: env.Streams.Cursors(),
		Alive:   append([]bool(nil), env.Alive...),
		Engine:  eng.engineState(),
		Transport: snapshot.TransportState{
			Counters:   env.Transport.Counters(),
			Collisions: env.Transport.Collisions(),
		},
		Telemetry: env.Cfg.Telemetry.State(),
	}
	if env.Faults != nil {
		st.FaultCursor = env.Faults.Cursor()
	}
	if env.Net != nil {
		st.Net = env.Net.State()
	}
	st.Devices = make([]snapshot.DeviceState, len(env.Devices))
	for i, d := range env.Devices {
		st.Devices[i] = captureDevice(d)
	}
	return st
}

// captureDevice copies one device's mutable state, serializing the
// discovery table as peer-sorted slices: the encoded form does not depend on
// discovery order, so it is byte-stable across engines and restores.
func captureDevice(d *device.Device) snapshot.DeviceState {
	ds := snapshot.DeviceState{Osc: d.Osc.State()}
	t := &d.Peers
	for k := 0; k < t.Len(); k++ {
		peer, stat := t.At(k)
		ds.Peers = append(ds.Peers, snapshot.PeerStat{
			Peer:  peer,
			Count: stat.Count,
			SumDB: stat.SumDB,
			Last:  float64(stat.Last),
		})
		if t.ServiceAt(k) {
			ds.ServicePeers = append(ds.ServicePeers, peer)
		}
	}
	sort.Slice(ds.Peers, func(i, j int) bool { return ds.Peers[i].Peer < ds.Peers[j].Peer })
	sort.Ints(ds.ServicePeers)
	return ds
}

// restoreEnvState overlays a snapshot's environment-level state onto a
// freshly built Env. It must run before newEngine — the event engine builds
// its fire queue from the oscillator states this installs.
func restoreEnvState(env *Env, st *snapshot.State) {
	env.Streams.Restore(st.Streams)
	copy(env.Alive, st.Alive)
	for i, ds := range st.Devices {
		d := env.Devices[i]
		d.Osc.SetState(ds.Osc)
		// The device is freshly built, so its table is empty. Both lists
		// are ascending and the service peers are a subset of the peers
		// (Decode checks it; captures produce it), so one merge pass
		// attaches the service flags.
		svc := ds.ServicePeers
		for _, p := range ds.Peers {
			match := len(svc) > 0 && svc[0] == p.Peer
			if match {
				svc = svc[1:]
			}
			d.Peers.Insert(p.Peer, device.RSSIStat{
				Count: p.Count,
				SumDB: p.SumDB,
				Last:  units.DBm(p.Last),
			}, match)
		}
	}
	env.Transport.RestoreCounters(st.Transport.Counters, st.Transport.Collisions)
	if env.Faults != nil {
		env.Faults.SetCursor(st.FaultCursor)
	}
	// The queue exists iff the config carries a non-degenerate asynchrony
	// plan — the same predicate that decided whether the capture wrote a Net
	// section, so the two sides always agree. The delay stream's cursor was
	// already reseated by Streams.Restore above.
	if env.Net != nil && st.Net != nil {
		env.Net.Restore(st.Net)
	}
	env.Cfg.Telemetry.SetState(st.Telemetry)
	// Seed branching: with the prefix state fully overlaid, reroot every
	// stream into the branch's own universe. Captured stream references
	// (per-sender pulse streams, the correlated-channel sampler) follow the
	// reroot in place.
	if env.Cfg.ForkStreams != "" {
		env.Streams.Reroot(env.Cfg.ForkStreams)
	}
}

// engineState captures the engine's accounting and, for the adaptive engine,
// its decision state.
func (e *engine) engineState() snapshot.EngineState {
	st := snapshot.EngineState{
		ActiveSlots: e.activeSlots,
		TotalSlots:  e.totalSlots,
		LastSlot:    int64(e.lastSlot),
	}
	if e.auto != nil {
		mode := EngineSlot
		if e.ev != nil {
			mode = EngineEvent
		}
		st.Auto = &snapshot.AutoState{
			Mode:        mode,
			WindowStart: int64(e.auto.windowStart),
			DecideAt:    int64(e.auto.decideAt),
			Eventful:    e.auto.eventful,
		}
	}
	st.Echo = e.echo.state()
	return st
}

// restoreEngineState overlays saved engine accounting onto a freshly built
// engine. Cross-engine restores are fine: a pure engine ignores a snapshot's
// Auto section, and an adaptive engine restoring a snapshot without one
// re-anchors its observation window at the snapshot slot.
func (e *engine) restoreEngineState(st snapshot.EngineState) {
	e.activeSlots = st.ActiveSlots
	e.totalSlots = st.TotalSlots
	e.lastSlot = units.Slot(st.LastSlot)
	e.echo.restore(st.Echo)
	if e.auto == nil {
		return
	}
	if a := st.Auto; a != nil {
		e.auto.windowStart = units.Slot(a.WindowStart)
		e.auto.decideAt = units.Slot(a.DecideAt)
		e.auto.eventful = a.Eventful
		if a.Mode == EngineEvent && e.ev == nil {
			e.ev = newEventEngine(e)
		}
	} else {
		e.auto.windowStart = e.lastSlot
		e.auto.decideAt = (e.lastSlot/e.auto.every + 1) * e.auto.every
		e.auto.eventful = 0
	}
}

// resumeFor returns the decoded snapshot a run should resume from, or nil
// for a fresh run. The protocol tag must match — resuming an ST run with an
// FST snapshot is a programming (or CLI-validation) error, not a recoverable
// condition, so it panics.
func resumeFor(cfg Config, proto string) *snapshot.State {
	if cfg.Resume == nil {
		return nil
	}
	if cfg.Resume.Protocol != proto {
		panic(fmt.Sprintf("core: resume snapshot is for protocol %q, run is %q", cfg.Resume.Protocol, proto))
	}
	return cfg.Resume
}

// resultState captures the mid-run portion of a Result.
func resultState(res *Result) snapshot.ResultState {
	return snapshot.ResultState{
		Converged:        res.Converged,
		ConvergenceSlots: int64(res.ConvergenceSlots),
		Counters:         res.Counters,
		Ops:              res.Ops,
		Repairs:          res.Repairs,
		Recoveries:       res.Recoveries,
		RecoverySlots:    int64(res.RecoverySlots),
	}
}

// applyResultState overlays a saved mid-run Result accumulation.
func applyResultState(res *Result, st snapshot.ResultState) {
	res.Converged = st.Converged
	res.ConvergenceSlots = units.Slot(st.ConvergenceSlots)
	res.Counters = st.Counters
	res.Ops = st.Ops
	res.Repairs = st.Repairs
	res.Recoveries = st.Recoveries
	res.RecoverySlots = units.Slot(st.RecoverySlots)
}
