package core

import (
	"fmt"
	"testing"

	"repro/internal/asyncnet"
	"repro/internal/faults"
	"repro/internal/snapshot"
	"repro/internal/units"
)

// Differential spine of the bounded-asynchrony message runtime
// (internal/asyncnet): a degenerate plan must be bit-identical to no plan at
// all on every engine, an adversarial plan must be bit-identical across
// engines, shard layouts and worker counts, checkpoints taken with messages
// in flight must resume exactly, and the liveness watchdog must stay
// silent at the adversary's delay bound.

// netEngines is the execution matrix the adversary must be invariant over.
var netEngines = []struct {
	name    string
	engine  string
	workers int
	shards  int
}{
	{"slot-w1", EngineSlot, 1, 0},
	{"slot-w4", EngineSlot, 4, 4},
	{"shard-s3", EngineSlot, 1, 3},
	{"event", EngineEvent, 1, 0},
	{"auto", EngineAuto, 1, 0},
}

func netCfg(n int, seed int64, maxSlots units.Slot, plan *asyncnet.Plan) Config {
	cfg := PaperConfig(n, seed)
	cfg.MaxSlots = maxSlots
	cfg.Net = plan
	if plan != nil && !plan.Degenerate() {
		cfg.JumpsPerCycle = 1 // hardened-protocol discipline (see Config.Net)
	}
	return cfg
}

// TestNetDegenerateBitIdentical pins the lockstep-equivalence guarantee: a
// degenerate asynchrony plan (zero delay, no duplication, no loss — with or
// without the reorder flag) produces byte-identical trajectories to running
// without the message runtime at all, on every engine, with and without a
// fault plan underneath.
func TestNetDegenerateBitIdentical(t *testing.T) {
	degenerates := []*asyncnet.Plan{
		{Version: asyncnet.PlanSchema},
		{Version: asyncnet.PlanSchema, Reorder: true},
	}
	plans := []*faults.Plan{
		nil,
		{
			Version:  faults.PlanSchema,
			LossRate: 0.05,
			Actions: []faults.Action{
				{Kind: faults.KindCrash, At: 400, Device: 3},
				{Kind: faults.KindRecover, At: 900, Device: 3},
			},
			Outages: []faults.Outage{{At: 500, Slots: 100, A: 7, B: -1}},
		},
	}
	for _, proto := range []Protocol{FST{}, ST{}} {
		for fi, fplan := range plans {
			base := netCfg(40, 12345, 2500, nil)
			base.Faults = fplan
			want, _ := fingerprintCfg(t, proto, base)
			if want.res.Net != nil {
				t.Fatalf("run without a plan reported Net counters: %+v", want.res.Net)
			}
			for di, dplan := range degenerates {
				for _, eng := range netEngines {
					cfg := base
					cfg.Net = dplan
					cfg.Engine = eng.engine
					cfg.Workers = eng.workers
					cfg.Shards = eng.shards
					got, _ := fingerprintCfg(t, proto, cfg)
					label := fmt.Sprintf("%s/faults%d/degen%d/%s", proto.Name(), fi, di, eng.name)
					compareFingerprints(t, label, want, got)
					if got.res.Net != nil {
						t.Errorf("%s: degenerate plan constructed the message runtime: %+v", label, got.res.Net)
					}
				}
			}
		}
	}
}

// TestNetAdversaryDeterministic pins the adversary's determinism contract:
// with delay, reordering and duplication active, every engine, shard layout
// and worker count walks the same trajectory draw for draw.
func TestNetAdversaryDeterministic(t *testing.T) {
	plan := &asyncnet.Plan{
		Version:       asyncnet.PlanSchema,
		MaxDelaySlots: 25,
		Reorder:       true,
		DupRate:       0.01,
		LossRate:      0.005,
	}
	for _, proto := range []Protocol{FST{}, ST{}, Centralized{}} {
		ref, _ := fingerprintCfg(t, proto, netCfg(40, 12345, 2500, plan))
		if ref.res.Net == nil {
			t.Fatalf("%s: adversarial run reported no Net counters", proto.Name())
		}
		if ref.res.Net.Delayed == 0 {
			t.Fatalf("%s: adversary delayed nothing — the plan is not biting", proto.Name())
		}
		for _, eng := range netEngines[1:] {
			cfg := netCfg(40, 12345, 2500, plan)
			cfg.Engine = eng.engine
			cfg.Workers = eng.workers
			cfg.Shards = eng.shards
			got, _ := fingerprintCfg(t, proto, cfg)
			label := proto.Name() + "/adversary/" + eng.name
			compareFingerprints(t, label, ref, got)
			if got.res.Net == nil || *got.res.Net != *ref.res.Net {
				t.Errorf("%s: Net counters differ: %+v vs %+v", label, ref.res.Net, got.res.Net)
			}
		}
	}
}

// TestNetAdversaryWithFaultsDeterministic layers the message adversary over
// an active fault schedule (channel loss, crash, recovery, outage) and pins
// engine/worker invariance of the combined trajectory.
func TestNetAdversaryWithFaultsDeterministic(t *testing.T) {
	nplan := &asyncnet.Plan{Version: asyncnet.PlanSchema, MaxDelaySlots: 12, Reorder: true, DupRate: 0.02}
	fplan := &faults.Plan{
		Version:  faults.PlanSchema,
		LossRate: 0.05,
		Actions: []faults.Action{
			{Kind: faults.KindCrash, At: 400, Device: 5},
			{Kind: faults.KindRecover, At: 1000, Device: 5},
		},
		Outages: []faults.Outage{{At: 600, Slots: 80, A: 2, B: -1}},
	}
	for _, proto := range []Protocol{FST{}, ST{}} {
		base := netCfg(40, 777, 3000, nplan)
		base.Faults = fplan
		ref, _ := fingerprintCfg(t, proto, base)
		for _, eng := range netEngines[1:] {
			cfg := base
			cfg.Engine = eng.engine
			cfg.Workers = eng.workers
			cfg.Shards = eng.shards
			got, _ := fingerprintCfg(t, proto, cfg)
			compareFingerprints(t, proto.Name()+"/adversary+faults/"+eng.name, ref, got)
		}
	}
}

// TestNetWatchdogNoFalsePositiveAtMaxDelay drives the liveness watchdog at
// the boundary: a pure latency shift of exactly the largest legal delay
// (one slot below the firing period), with the watchdog armed by a benign
// clock-jump fault. The widened patience window (watchdogPeriods*T +
// maxDelay) must keep every live device unconvicted — a false positive
// would evict a live device and show up as a spurious repair round.
func TestNetWatchdogNoFalsePositiveAtMaxDelay(t *testing.T) {
	for _, proto := range []Protocol{FST{}, ST{}} {
		cfg := PaperConfig(30, 4242)
		cfg.JumpsPerCycle = 1
		boundary := cfg.PeriodSlots - 1 // largest delay Validate admits
		cfg.Net = &asyncnet.Plan{Version: asyncnet.PlanSchema, MaxDelaySlots: boundary}
		cfg.Faults = &faults.Plan{
			Version: faults.PlanSchema,
			Actions: []faults.Action{{Kind: faults.KindClockJump, At: 1500, Device: 4, Delta: 0.3}},
		}
		env := mustEnv(t, cfg)
		res := proto.Run(env)
		if !res.Converged {
			t.Errorf("%s: did not re-converge under boundary delay %d", proto.Name(), boundary)
		}
		if res.Repairs != 0 {
			t.Errorf("%s: %d spurious repair rounds — watchdog false positive at exactly max delay",
				proto.Name(), res.Repairs)
		}
	}
}

// TestNetPartitionFragmentsAndRejoins is the graceful-degradation pin: a
// network split under an active message adversary must not wedge either
// protocol — each side keeps running, and once the split lifts the repair
// machinery rejoins the far side and the run re-converges.
func TestNetPartitionFragmentsAndRejoins(t *testing.T) {
	for _, proto := range []Protocol{FST{}, ST{}} {
		cfg := PaperConfig(30, 2024)
		cfg.JumpsPerCycle = 1
		cfg.Net = &asyncnet.Plan{Version: asyncnet.PlanSchema, MaxDelaySlots: 10, Reorder: true, DupRate: 0.01}
		cfg.Faults = &faults.Plan{
			Version:    faults.PlanSchema,
			Partitions: []faults.Partition{{At: 1600, Slots: 600, Group: []int{0, 1, 2, 3, 4, 5, 6}}},
		}
		env := mustEnv(t, cfg)
		res := proto.Run(env)
		if !res.Converged {
			t.Fatalf("%s: never re-converged after the partition lifted", proto.Name())
		}
		if res.Recoveries < 1 {
			t.Fatalf("%s: no recovery round recorded — the split either was not observed or never healed", proto.Name())
		}
	}
}

// TestNetCheckpointResumeMidFlight interrupts an adversarial run at
// checkpoints that provably carry in-flight messages and resumes each into
// every engine: the continuation must reproduce the uninterrupted run bit
// for bit, through the full wire encoding.
func TestNetCheckpointResumeMidFlight(t *testing.T) {
	plan := &asyncnet.Plan{
		Version:       asyncnet.PlanSchema,
		MaxDelaySlots: 30,
		Reorder:       true,
		DupRate:       0.05,
	}
	for _, proto := range []Protocol{FST{}, ST{}} {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			cfg := netCfg(40, 12345, 2500, plan)
			cfg.CheckpointEvery = 150
			base, cks := checkpointRun(t, proto, cfg)

			// Checkpointing must stay trajectory-neutral under the adversary.
			plainCfg := netCfg(40, 12345, 2500, plan)
			plain, _ := fingerprintCfg(t, proto, plainCfg)
			compareFingerprints(t, proto.Name()+"/net/checkpointing-neutral", plain, base)

			// Find checkpoints that actually hold in-flight messages — the
			// whole point of the schema-2 Net section.
			var midFlight []taggedCheckpoint
			for _, ck := range cks {
				st := decodeCheckpoint(t, ck)
				if st.Net != nil && len(st.Net.InFlight) > 0 {
					midFlight = append(midFlight, ck)
				}
			}
			if len(midFlight) == 0 {
				t.Fatal("no checkpoint captured in-flight messages; adversary or cadence mistuned")
			}
			pick := midFlight[len(midFlight)/2]
			for _, tgt := range resumeTargets {
				rCfg := cfg
				rCfg.Engine = tgt.engine
				rCfg.Workers = tgt.workers
				rCfg.Shards = tgt.shards
				rCfg.Resume = decodeCheckpoint(t, pick)
				cont, _ := fingerprintCfg(t, proto, rCfg)
				label := fmt.Sprintf("%s/net/resume@%d/%s", proto.Name(), pick.slot, tgt.name)
				checkResume(t, label, base, pick.slot, cont)
				if cont.res.Net == nil {
					t.Errorf("%s: resumed run lost the Net counters", label)
				} else if *cont.res.Net != *base.res.Net {
					// The resumed run restores the queue's counters from the
					// snapshot, so the totals must match the uninterrupted run.
					t.Errorf("%s: Net counters differ: base %+v vs resumed %+v", label, base.res.Net, cont.res.Net)
				}
			}
		})
	}
}

// TestNetSnapshotValidatesInFlight pins the snapshot validator's Net checks:
// out-of-range endpoints, non-positive due slots and sequence numbers beyond
// the cursor must all be rejected at decode time.
func TestNetSnapshotValidatesInFlight(t *testing.T) {
	cfg := netCfg(40, 12345, 2500, &asyncnet.Plan{
		Version: asyncnet.PlanSchema, MaxDelaySlots: 30, Reorder: true, DupRate: 0.05,
	})
	cfg.CheckpointEvery = 150
	_, cks := checkpointRun(t, FST{}, cfg)
	var st *snapshot.State
	for _, ck := range cks {
		s := decodeCheckpoint(t, ck)
		if s.Net != nil && len(s.Net.InFlight) > 0 {
			st = s
			break
		}
	}
	if st == nil {
		t.Fatal("no mid-flight checkpoint to mutate")
	}
	corrupt := func(name string, mutate func(*snapshot.State)) {
		data, err := snapshot.Encode(st)
		if err != nil {
			t.Fatal(err)
		}
		bad, err := snapshot.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		mutate(bad)
		raw, err := snapshot.Encode(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := snapshot.Decode(raw); err == nil {
			t.Errorf("%s: corrupted Net section decoded cleanly", name)
		}
	}
	corrupt("from out of range", func(s *snapshot.State) { s.Net.InFlight[0].From = s.N })
	corrupt("to negative", func(s *snapshot.State) { s.Net.InFlight[0].To = -1 })
	corrupt("due slot zero", func(s *snapshot.State) { s.Net.InFlight[0].At = 0 })
	corrupt("seq beyond cursor", func(s *snapshot.State) { s.Net.InFlight[0].Seq = s.Net.Seq })
	corrupt("accepted out of range", func(s *snapshot.State) {
		s.Net.Accepted = append(s.Net.Accepted, asyncnet.LinkSlot{From: s.N, To: 0, Slot: 1})
	})
}

// TestNetAdversaryConvergesAtScale is the acceptance run: n=200, max delay
// T/4, reordering on, 1% duplication — both distributed protocols must still
// reach detected synchrony, identically at every worker count.
func TestNetAdversaryConvergesAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("n=200 acceptance run skipped in -short mode")
	}
	for _, proto := range []Protocol{FST{}, ST{}} {
		cfg := PaperConfig(200, 7)
		cfg.JumpsPerCycle = 1
		cfg.Net = &asyncnet.Plan{
			Version:       asyncnet.PlanSchema,
			MaxDelaySlots: cfg.PeriodSlots / 4,
			Reorder:       true,
			DupRate:       0.01,
		}
		ref, _ := fingerprintCfg(t, proto, cfg)
		if !ref.res.Converged {
			t.Fatalf("%s: n=200 did not converge under T/4 delay with reordering and 1%% duplication", proto.Name())
		}
		par := cfg
		par.Workers = -1
		par.Shards = 8
		got, _ := fingerprintCfg(t, proto, par)
		compareFingerprints(t, proto.Name()+"/n200/workers", ref, got)
	}
}

// TestNetCheckpointResumePendingEcho pins that the absorption-echo buffer a
// slot can leave filled for the next one (see echoState) is part of the
// checkpoint. It searches small adversarial runs for a checkpoint that
// carries a pending echo, then resumes from every checkpoint of that run on
// the sequential, sharded and event engines: each continuation must
// reproduce the uninterrupted run on the same engine bit for bit. Without the
// buffer in the checkpoint, a resumed run drops the echo and diverges.
func TestNetCheckpointResumePendingEcho(t *testing.T) {
	engines := []struct {
		name    string
		engine  string
		workers int
		shards  int
	}{
		{"slot-w1", EngineSlot, 1, 0},
		{"shard-s3-w2", EngineSlot, 2, 3},
		{"event", EngineEvent, 1, 0},
	}
	build := func(proto Protocol, seed int64) Config {
		cfg := PaperConfig(40, seed)
		cfg.MaxSlots = 2500
		cfg.JumpsPerCycle = 1
		cfg.Net = &asyncnet.Plan{
			Version:       asyncnet.PlanSchema,
			MaxDelaySlots: cfg.PeriodSlots / 4,
			Reorder:       true,
			DupRate:       0.01,
		}
		cfg.CheckpointEvery = 100
		return cfg
	}
	for _, proto := range []Protocol{FST{}, ST{}} {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			// The first seed whose run checkpoints a pending echo.
			var seed int64
			for s := int64(1); s <= 20 && seed == 0; s++ {
				_, cks := checkpointRun(t, proto, build(proto, s))
				for _, ck := range cks {
					if decodeCheckpoint(t, ck).Engine.Echo != nil {
						seed = s
						break
					}
				}
			}
			if seed == 0 {
				t.Fatal("no run in seeds 1..20 checkpoints a pending echo")
			}
			for _, eng := range engines {
				cfg := build(proto, seed)
				cfg.Engine = eng.engine
				cfg.Workers = eng.workers
				cfg.Shards = eng.shards
				base, cks := checkpointRun(t, proto, cfg)
				pending := 0
				for _, ck := range cks {
					if decodeCheckpoint(t, ck).Engine.Echo != nil {
						pending++
					}
				}
				if pending == 0 {
					t.Fatalf("%s seed %d on %s: no checkpoint carries a pending echo", proto.Name(), seed, eng.name)
				}
				for _, ck := range cks {
					rCfg := cfg
					rCfg.Resume = decodeCheckpoint(t, ck)
					cont, _ := fingerprintCfg(t, proto, rCfg)
					label := fmt.Sprintf("%s/seed%d/echo-resume@%d/%s", proto.Name(), seed, ck.slot, eng.name)
					checkResume(t, label, base, ck.slot, cont)
				}
			}
		})
	}
}
