package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/asyncnet"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/units"
)

// Delay sweep: how does bounded message asynchrony degrade convergence and
// self-healing? Each point attaches the asyncnet adversary with a maximum
// delay of 0 (lockstep baseline), T/8, T/4 and T/2 of the firing period,
// reordering enabled and 1% duplication, and measures per protocol:
//
//   - convergence time of a fault-free run under the adversary, and
//   - recovery time after the same derived 20% crash wave the recovery
//     sweep uses, with the adversary still active.
//
// The zero-delay point runs without a plan at all — a degenerate plan is
// defined to be bit-identical to no plan, so the baseline row doubles as a
// live cross-check of the lockstep-equivalence guarantee (DESIGN.md §14).

// delayDupRate is the duplication probability every adversarial point uses.
const delayDupRate = 0.01

// delayFractions are the max-delay points as divisors of the firing period
// (0 stands for the lockstep baseline).
var delayFractions = []int{0, 8, 4, 2}

// DelayRow is one delay-sweep point: per-protocol summaries across seeds at
// one maximum message delay.
type DelayRow struct {
	N int
	// DelaySlots is the adversary's maximum delivery delay (0 = lockstep
	// baseline, no adversary attached).
	DelaySlots int
	// ConvFST and ConvST summarize convergence slots over the converged
	// fault-free runs.
	ConvFST metrics.Summary
	ConvST  metrics.Summary
	// RecFST and RecST summarize cumulative recovery slots over the healed
	// faulted runs.
	RecFST metrics.Summary
	RecST  metrics.Summary
	// ConvergedFST and ConvergedST count fault-free runs that reached
	// synchrony, out of Seeds each.
	ConvergedFST, ConvergedST int
	// HealedFST and HealedST count faulted runs whose survivors
	// re-converged, out of AttemptedFST/AttemptedST.
	HealedFST, HealedST       int
	AttemptedFST, AttemptedST int
}

// delayPlan builds the adversary for one sweep point: max delay d slots,
// reordering on, 1% duplication. d == 0 returns nil — the lockstep baseline
// runs without the message runtime (bit-identical to a degenerate plan).
func delayPlan(d int) *asyncnet.Plan {
	if d == 0 {
		return nil
	}
	return &asyncnet.Plan{
		Version:       asyncnet.PlanSchema,
		MaxDelaySlots: d,
		Reorder:       true,
		DupRate:       delayDupRate,
	}
}

// RunDelaySweep executes the delay sweep and returns one row per
// (size, delay), ordered by N then delay.
func RunDelaySweep(opts Options) ([]DelayRow, error) {
	if len(opts.Sizes) == 0 || opts.Seeds < 1 {
		return nil, fmt.Errorf("experiments: empty sweep")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	type delayJob struct {
		job
		delay int
	}
	// The delay grid is derived from the model period, which the sweep
	// does not vary: probe it once from the first size's config.
	period := core.PaperConfig(opts.Sizes[0], opts.BaseSeed).PeriodSlots
	var jobs []delayJob
	for _, n := range opts.Sizes {
		for _, frac := range delayFractions {
			d := 0
			if frac > 0 {
				d = period / frac
			}
			for s := 0; s < opts.Seeds; s++ {
				seed := opts.BaseSeed + int64(s)
				jobs = append(jobs, delayJob{job{n: n, seed: seed, proto: core.FST{}}, d})
				jobs = append(jobs, delayJob{job{n: n, seed: seed, proto: core.ST{}}, d})
			}
		}
	}

	geom := opts.Geometry
	if geom == nil {
		geom = core.NewGeometryCache()
	}
	prog := newProgressReporter(opts.Progress, "delay", len(jobs), opts.Cache)

	type delayOutcome struct {
		n, delay  int
		fst       bool
		converged bool
		conv      units.Slot
		attempted bool
		healed    bool
		rec       units.Slot
	}
	// Outcomes are stored at their job's index and aggregated in job order
	// (see RunSweep), independent of worker scheduling.
	jobCh := make(chan int)
	outs := make([]delayOutcome, len(jobs))
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
					cfg.Net = delayPlan(j.delay)
					if cfg.Net != nil {
						// Hardened-protocol discipline under asynchrony:
						// bound the jump budget (see Config.Net). The
						// lockstep baseline keeps the paper's unlimited
						// budget so its row matches the other sweeps.
						cfg.JumpsPerCycle = 1
					}
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
				ref, err := run(build())
				if err != nil {
					fail(err)
					return
				}
				out := delayOutcome{
					n: j.n, delay: j.delay, fst: j.proto.Name() == "FST",
					converged: ref.Converged, conv: ref.ConvergenceSlots,
				}
				if opts.OnResult != nil {
					opts.OnResult(j.n, j.proto.Name(), ref)
				}
				if ref.Converged {
					// Same derived crash wave as the recovery sweep, now
					// healed under the adversary.
					if plan := recoveryPlan(build(), ref.ConvergenceSlots); plan != nil {
						cfg := build()
						cfg.Faults = plan
						res, err := run(cfg)
						if err != nil {
							fail(err)
							return
						}
						out.attempted = true
						out.healed = res.Recoveries > 0
						out.rec = res.RecoverySlots
						if opts.OnResult != nil {
							opts.OnResult(j.n, j.proto.Name(), res)
						}
					}
				}
				prog.jobDone(j.n, j.proto.Name(), false, false)
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

	type point struct{ n, delay int }
	type acc struct {
		convFST, convST, recFST, recST []float64
		cFST, cST                      int
		healFST, healST                int
		attFST, attST                  int
	}
	byPoint := make(map[point]*acc)
	for _, o := range outs {
		p := point{o.n, o.delay}
		a := byPoint[p]
		if a == nil {
			a = &acc{}
			byPoint[p] = a
		}
		if o.fst {
			if o.converged {
				a.cFST++
				a.convFST = append(a.convFST, float64(o.conv))
			}
			if o.attempted {
				a.attFST++
				if o.healed {
					a.healFST++
					a.recFST = append(a.recFST, float64(o.rec))
				}
			}
		} else {
			if o.converged {
				a.cST++
				a.convST = append(a.convST, float64(o.conv))
			}
			if o.attempted {
				a.attST++
				if o.healed {
					a.healST++
					a.recST = append(a.recST, float64(o.rec))
				}
			}
		}
	}

	rows := make([]DelayRow, 0, len(byPoint))
	for p, a := range byPoint {
		rows = append(rows, DelayRow{
			N:            p.n,
			DelaySlots:   p.delay,
			ConvFST:      metrics.Summarize(a.convFST),
			ConvST:       metrics.Summarize(a.convST),
			RecFST:       metrics.Summarize(a.recFST),
			RecST:        metrics.Summarize(a.recST),
			ConvergedFST: a.cFST,
			ConvergedST:  a.cST,
			HealedFST:    a.healFST,
			HealedST:     a.healST,
			AttemptedFST: a.attFST,
			AttemptedST:  a.attST,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].N != rows[j].N {
			return rows[i].N < rows[j].N
		}
		return rows[i].DelaySlots < rows[j].DelaySlots
	})
	return rows, nil
}

// DelayTable renders the delay sweep: convergence and crash-recovery time
// per protocol as the adversary's maximum message delay grows.
func DelayTable(rows []DelayRow) *metrics.Table {
	t := metrics.NewTable(
		"Convergence and recovery under bounded message asynchrony (reorder on, 1% duplication; mean ± 95% CI)",
		"nodes", "max delay", "FST conv", "FST ±CI", "ST conv", "ST ±CI", "FST rec", "ST rec", "healed FST", "healed ST",
	)
	for _, r := range rows {
		t.AddRow(r.N, r.DelaySlots,
			r.ConvFST.Mean, r.ConvFST.CI95(),
			r.ConvST.Mean, r.ConvST.CI95(),
			r.RecFST.Mean, r.RecST.Mean,
			fmt.Sprintf("%d/%d", r.HealedFST, r.AttemptedFST),
			fmt.Sprintf("%d/%d", r.HealedST, r.AttemptedST))
	}
	return t
}
