package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/snapshot"
	"repro/internal/units"
)

// Recovery sweep: how fast does each protocol's self-healing layer bring
// the network back to synchrony after a crash wave? Every (size, seed,
// protocol) point runs twice: a fault-free reference run finds the
// convergence slot, then a derived fault plan crashes the top 20% of
// device ids two periods after it and the faulted run measures the
// fault-to-re-synchrony time (Result.RecoverySlots) and the repair rounds
// it took. Plans are derived deterministically from the reference run, so
// the sweep is reproducible like every other driver in this package.

// recoveryKillFraction is the share of devices the derived plan crashes.
const recoveryKillFraction = 5 // kill n/5 = 20%

// recoveryPrefixRing bounds the rolling in-memory checkpoint ring a
// reference run keeps for shared-prefix reuse (Options.PrefixSlots): deep
// state copies are not free, and only the newest checkpoint at or before the
// convergence slot is ever resumed from.
const recoveryPrefixRing = 8

// RecoveryRow is one recovery-sweep point: per-protocol summaries across
// seeds.
type RecoveryRow struct {
	N int
	// RecTimeFST and RecTimeST summarize cumulative recovery slots
	// (fault to re-convergence) over the healed runs.
	RecTimeFST metrics.Summary
	RecTimeST  metrics.Summary
	// RepairsFST and RepairsST summarize completed self-healing rounds.
	RepairsFST metrics.Summary
	RepairsST  metrics.Summary
	// HealedFST and HealedST count runs whose survivors re-converged,
	// out of AttemptedFST/AttemptedST (reference runs that converged and
	// could be faulted).
	HealedFST, HealedST       int
	AttemptedFST, AttemptedST int
}

// recoveryPlan derives the crash plan for a converged reference run:
// the top n/recoveryKillFraction device ids crash together two periods
// after the observed convergence slot.
func recoveryPlan(cfg core.Config, convergedAt units.Slot) *faults.Plan {
	crashAt := int64(convergedAt) + 2*int64(cfg.PeriodSlots)
	if crashAt >= int64(cfg.MaxSlots) {
		return nil // no slot budget left to observe a recovery
	}
	p := &faults.Plan{Version: faults.PlanSchema}
	for d := cfg.N - cfg.N/recoveryKillFraction; d < cfg.N; d++ {
		p.Actions = append(p.Actions, faults.Action{Kind: faults.KindCrash, At: crashAt, Device: d})
	}
	return p
}

// RunRecoverySweep executes the recovery sweep and returns one row per
// size, ordered by N.
func RunRecoverySweep(opts Options) ([]RecoveryRow, error) {
	if len(opts.Sizes) == 0 || opts.Seeds < 1 {
		return nil, fmt.Errorf("experiments: empty sweep")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	var jobs []job
	for _, n := range opts.Sizes {
		for s := 0; s < opts.Seeds; s++ {
			seed := opts.BaseSeed + int64(s)
			jobs = append(jobs, job{n: n, seed: seed, proto: core.FST{}})
			jobs = append(jobs, job{n: n, seed: seed, proto: core.ST{}})
		}
	}

	// Reference and faulted run of a job share a deployment; the geometry
	// memoization builds it once per (n, seed).
	geom := opts.Geometry
	if geom == nil {
		geom = core.NewGeometryCache()
	}

	// One progress line per job (a job = reference run + derived faulted
	// run), flagging whether the faulted branch reused a prefix checkpoint.
	prog := newProgressReporter(opts.Progress, "recovery", len(jobs), opts.Cache)

	type recOutcome struct {
		n         int
		fst       bool
		attempted bool
		res       core.Result
	}
	// Outcomes are stored at their job's index and aggregated in job order
	// (see RunSweep), independent of worker scheduling.
	jobCh := make(chan int)
	outs := make([]recOutcome, len(jobs))
	errCh := make(chan error, workers)
	// See RunSweep: abort unblocks the producer when a worker exits early.
	abort := make(chan struct{})
	var abortOnce sync.Once
	fail := func(err error) {
		errCh <- err
		abortOnce.Do(func() { close(abort) })
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobCh {
				j := jobs[i]
				build := func() core.Config {
					cfg := core.PaperConfig(j.n, j.seed)
					cfg.Workers = opts.SlotWorkers
					cfg.Shards = opts.Shards
					cfg.Engine = opts.Engine
					if opts.MaxSlots > 0 {
						cfg.MaxSlots = opts.MaxSlots
					}
					if opts.Configure != nil {
						opts.Configure(&cfg)
					}
					cfg.Geometry = geom
					return cfg
				}
				run := func(cfg core.Config) (core.Result, error) {
					key, cacheable := "", false
					if opts.Cache != nil {
						key, cacheable = CacheKey(cfg, j.proto.Name())
						if cacheable {
							if res, hit := opts.Cache.Get(key); hit {
								return res, nil
							}
						}
					}
					env, err := core.NewEnv(cfg)
					if err != nil {
						return core.Result{}, err
					}
					res := j.proto.Run(env)
					if cacheable {
						opts.Cache.Put(key, res)
					}
					return res, nil
				}
				// Shared-prefix reuse (Options.PrefixSlots): the reference
				// run keeps a rolling ring of in-memory checkpoints. The
				// derived plan's crash wave lands two periods after the
				// observed convergence slot, so any checkpoint at or before
				// that slot satisfies the prefix-shareability margin (first
				// action >= resume slot + 2 periods) and the faulted run can
				// resume from it instead of replaying the whole pre-fault
				// trajectory. RecoveryRow carries no ActiveSlots, so the
				// checkpoint-boundary stepping the reference run adds (and
				// the resumed run's inherited accounting) shifts nothing a
				// row reports — prefix_test.go pins row equality.
				refCfg := build()
				var ring []*snapshot.State
				if opts.PrefixSlots != 0 {
					cadence := opts.PrefixSlots
					if cadence < 0 { // auto: five firing periods
						cadence = 5 * units.Slot(refCfg.PeriodSlots)
					}
					refCfg.CheckpointEvery = cadence
					refCfg.OnCheckpoint = func(st *snapshot.State) {
						if len(ring) >= recoveryPrefixRing {
							copy(ring, ring[1:])
							ring[len(ring)-1] = st
							return
						}
						ring = append(ring, st)
					}
				}
				ref, err := run(refCfg)
				if err != nil {
					fail(err)
					return
				}
				out := recOutcome{n: j.n, fst: j.proto.Name() == "FST"}
				resumed := false
				if ref.Converged {
					if plan := recoveryPlan(build(), ref.ConvergenceSlots); plan != nil {
						cfg := build()
						cfg.Faults = plan
						for i := len(ring) - 1; i >= 0; i-- {
							if units.Slot(ring[i].Slot) <= ref.ConvergenceSlots {
								cfg.Resume = ring[i]
								resumed = true
								break
							}
						}
						res, err := run(cfg)
						if err != nil {
							fail(err)
							return
						}
						out.attempted = true
						out.res = res
						if opts.OnResult != nil {
							opts.OnResult(j.n, j.proto.Name(), res)
						}
					}
				}
				prog.jobDone(j.n, j.proto.Name(), false, resumed)
				outs[i] = out
			}
		}()
	}
feed:
	for i := range jobs {
		select {
		case jobCh <- i:
		case <-abort:
			break feed
		}
	}
	close(jobCh)
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}

	type acc struct {
		recFST, recST, repFST, repST []float64
		healFST, healST              int
		attFST, attST                int
	}
	byN := make(map[int]*acc)
	for _, o := range outs {
		a := byN[o.n]
		if a == nil {
			a = &acc{}
			byN[o.n] = a
		}
		if !o.attempted {
			continue
		}
		healed := o.res.Recoveries > 0
		if o.fst {
			a.attFST++
			if healed {
				a.healFST++
				a.recFST = append(a.recFST, float64(o.res.RecoverySlots))
				a.repFST = append(a.repFST, float64(o.res.Repairs))
			}
		} else {
			a.attST++
			if healed {
				a.healST++
				a.recST = append(a.recST, float64(o.res.RecoverySlots))
				a.repST = append(a.repST, float64(o.res.Repairs))
			}
		}
	}

	rows := make([]RecoveryRow, 0, len(byN))
	for n, a := range byN {
		rows = append(rows, RecoveryRow{
			N:            n,
			RecTimeFST:   metrics.Summarize(a.recFST),
			RecTimeST:    metrics.Summarize(a.recST),
			RepairsFST:   metrics.Summarize(a.repFST),
			RepairsST:    metrics.Summarize(a.repST),
			HealedFST:    a.healFST,
			HealedST:     a.healST,
			AttemptedFST: a.attFST,
			AttemptedST:  a.attST,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].N < rows[j].N })
	return rows, nil
}

// RecoveryTable renders the recovery sweep: slots from the crash wave to
// re-detected synchrony over the survivors, and the self-healing rounds
// spent, per protocol and scale.
func RecoveryTable(rows []RecoveryRow) *metrics.Table {
	t := metrics.NewTable(
		"Recovery after a 20% crash wave (slots from fault to re-synchrony; mean ± 95% CI)",
		"nodes", "FST rec", "FST ±CI", "ST rec", "ST ±CI", "FST repairs", "ST repairs", "healed FST", "healed ST",
	)
	for _, r := range rows {
		t.AddRow(r.N,
			r.RecTimeFST.Mean, r.RecTimeFST.CI95(),
			r.RecTimeST.Mean, r.RecTimeST.CI95(),
			r.RepairsFST.Mean, r.RepairsST.Mean,
			fmt.Sprintf("%d/%d", r.HealedFST, r.AttemptedFST),
			fmt.Sprintf("%d/%d", r.HealedST, r.AttemptedST))
	}
	return t
}
