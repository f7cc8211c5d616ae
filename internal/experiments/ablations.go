package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/discovery"
	"repro/internal/firefly"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/oscillator"
	"repro/internal/spectrum"
	"repro/internal/units"
	"repro/internal/xrand"
)

// oscillatorOrder is a small indirection so the experiment files read
// cleanly.
func oscillatorOrder(phases []float64) float64 { return oscillator.OrderParameter(phases) }

// AblationShadowing quantifies what the RSSI error model costs and buys: it
// sweeps the shadowing standard deviation (0 = perfect ranging, 4 dB, and
// Table I's 10 dB) and reports ST's convergence time, messages, and the
// quality of the built tree (its weight re-priced on true mean RSSI versus
// the ideal maximum spanning tree). This is ablation A of DESIGN.md.
func AblationShadowing(n int, seeds int, baseSeed int64) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Ablation A — ST vs shadowing σ (n=%d, %d seeds)", n, seeds),
		"sigma dB", "time mean", "msgs mean", "tree/ideal weight", "conv",
	)
	for _, sigma := range []float64{0, 4, 10} {
		var times, msgs, quality []float64
		conv := 0
		for s := 0; s < seeds; s++ {
			cfg := core.PaperConfig(n, baseSeed+int64(s))
			cfg.ShadowSigmaDB = sigma
			env, err := core.NewEnv(cfg)
			if err != nil {
				return nil, err
			}
			res := core.ST{}.Run(env)
			if res.Converged {
				conv++
			}
			times = append(times, float64(res.ConvergenceSlots))
			msgs = append(msgs, float64(res.Counters.TotalTx()))
			quality = append(quality, treeQuality(env, res))
		}
		t.AddRow(sigma, metrics.Summarize(times).Mean, metrics.Summarize(msgs).Mean,
			metrics.Summarize(quality).Mean, fmt.Sprintf("%d/%d", conv, seeds))
	}
	return t, nil
}

// treeQuality re-prices the protocol tree on true mean RSSI and compares it
// to the ideal maximum spanning tree of the reference graph. Both weights
// are negative dBm sums, so the ratio ideal/actual is <= 1 with 1 = ideal
// (a heavier — less negative — actual tree pushes the ratio toward 1).
func treeQuality(env *core.Env, res core.Result) float64 {
	if len(res.TreeEdges) == 0 {
		return 0
	}
	var actual float64
	for _, e := range res.TreeEdges {
		actual += float64(env.Transport.MeanRSSI(e.U, e.V))
	}
	g := env.ReferenceGraph()
	ideal := graph.TotalWeight(graph.KruskalMax(g))
	if actual == 0 {
		return 0
	}
	return ideal / actual
}

// AblationTopology isolates the tree-coupling choice: ST as proposed versus
// ST with mesh coupling (tree still built for merging, but every heard PS
// couples). This is ablation B of DESIGN.md.
func AblationTopology(n int, seeds int, baseSeed int64) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Ablation B — coupling topology (n=%d, %d seeds)", n, seeds),
		"coupling", "time mean", "msgs mean", "conv",
	)
	for _, mesh := range []bool{false, true} {
		var times, msgs []float64
		conv := 0
		for s := 0; s < seeds; s++ {
			cfg := core.PaperConfig(n, baseSeed+int64(s))
			cfg.MeshCoupling = mesh
			env, err := core.NewEnv(cfg)
			if err != nil {
				return nil, err
			}
			res := core.ST{}.Run(env)
			if res.Converged {
				conv++
			}
			times = append(times, float64(res.ConvergenceSlots))
			msgs = append(msgs, float64(res.Counters.TotalTx()))
		}
		label := "tree (proposed)"
		if mesh {
			label = "mesh (ablated)"
		}
		t.AddRow(label, metrics.Summarize(times).Mean, metrics.Summarize(msgs).Mean,
			fmt.Sprintf("%d/%d", conv, seeds))
	}
	return t, nil
}

// AblationDrift sweeps per-device clock-rate offsets (ppm standard
// deviation) and reports how both protocols hold up — the paper assumes
// ideal clocks ("all devices are same type"); this extension finds the
// drift level at which pulse coupling can no longer hold the network in a
// one-slot window. The tolerance is roughly β·T slots of correction per
// period against drift·T slots of divergence.
func AblationDrift(n int, seeds int, baseSeed int64, ppms []float64) (*metrics.Table, error) {
	if len(ppms) == 0 {
		ppms = []float64{0, 20, 500, 2000, 10000}
	}
	t := metrics.NewTable(
		fmt.Sprintf("Ablation D — clock drift tolerance (n=%d, %d seeds, 1-slot sync window)", n, seeds),
		"drift ppm", "proto", "conv", "time mean",
	)
	for _, ppm := range ppms {
		for _, proto := range []core.Protocol{core.FST{}, core.ST{}} {
			var times []float64
			conv := 0
			for s := 0; s < seeds; s++ {
				cfg := core.PaperConfig(n, baseSeed+int64(s))
				cfg.ClockDriftPPM = ppm
				cfg.SyncWindowSlots = 1
				cfg.MaxSlots = 60000
				env, err := core.NewEnv(cfg)
				if err != nil {
					return nil, err
				}
				res := proto.Run(env)
				if res.Converged {
					conv++
				}
				times = append(times, float64(res.ConvergenceSlots))
			}
			t.AddRow(ppm, proto.Name(), fmt.Sprintf("%d/%d", conv, seeds),
				metrics.Summarize(times).Mean)
		}
	}
	return t, nil
}

// AblationPreambles sweeps the PRACH preamble pool size: with one shared
// sequence every same-slot PS contends (the headline configuration); LTE's
// 64 Zadoff–Chu preambles make most same-slot PSs orthogonal. The sweep
// quantifies how much intra-codec contention costs each protocol — the
// "intra-group proximity signal interference" the paper mentions but does
// not measure. This is ablation E.
func AblationPreambles(n int, seeds int, baseSeed int64, pools []int) (*metrics.Table, error) {
	if len(pools) == 0 {
		pools = []int{1, 4, 16, 64}
	}
	t := metrics.NewTable(
		fmt.Sprintf("Ablation E — PRACH preamble pool size (n=%d, %d seeds)", n, seeds),
		"preambles", "proto", "time mean", "msgs mean", "conv",
	)
	for _, pool := range pools {
		for _, proto := range []core.Protocol{core.FST{}, core.ST{}} {
			var times, msgs []float64
			conv := 0
			for s := 0; s < seeds; s++ {
				cfg := core.PaperConfig(n, baseSeed+int64(s))
				cfg.Preambles = pool
				env, err := core.NewEnv(cfg)
				if err != nil {
					return nil, err
				}
				res := proto.Run(env)
				if res.Converged {
					conv++
				}
				times = append(times, float64(res.ConvergenceSlots))
				msgs = append(msgs, float64(res.Counters.TotalTx()))
			}
			t.AddRow(pool, proto.Name(), metrics.Summarize(times).Mean,
				metrics.Summarize(msgs).Mean, fmt.Sprintf("%d/%d", conv, seeds))
		}
	}
	return t, nil
}

// AblationDetection contrasts the two PS detection models: the paper's flat
// −95 dBm threshold with a capture margin (headline configuration) versus a
// physical SINR detector over the LTE PRACH noise floor, where even
// sub-threshold arrivals interfere. This is ablation F.
func AblationDetection(n int, seeds int, baseSeed int64) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Ablation F — PS detection model (n=%d, %d seeds)", n, seeds),
		"detector", "proto", "time mean", "msgs mean", "conv",
	)
	for _, sinr := range []bool{false, true} {
		for _, proto := range []core.Protocol{core.FST{}, core.ST{}} {
			var times, msgs []float64
			conv := 0
			for s := 0; s < seeds; s++ {
				cfg := core.PaperConfig(n, baseSeed+int64(s))
				cfg.SINRDetection = sinr
				env, err := core.NewEnv(cfg)
				if err != nil {
					return nil, err
				}
				res := proto.Run(env)
				if res.Converged {
					conv++
				}
				times = append(times, float64(res.ConvergenceSlots))
				msgs = append(msgs, float64(res.Counters.TotalTx()))
			}
			label := "threshold+capture"
			if sinr {
				label = "SINR"
			}
			t.AddRow(label, proto.Name(), metrics.Summarize(times).Mean,
				metrics.Summarize(msgs).Mean, fmt.Sprintf("%d/%d", conv, seeds))
		}
	}
	return t, nil
}

// Services sweeps the number of service-interest groups: more services
// means fewer same-interest pairs per device, so application-level
// discovery coverage climbs faster (fewer pairs to find) while physical
// discovery and synchronization are untouched — codec orthogonality at
// work. This is the knob behind the paper's "different codecs scheme
// indicate different services".
func Services(n int, seeds int, baseSeed int64, counts []int) (*metrics.Table, error) {
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8}
	}
	t := metrics.NewTable(
		fmt.Sprintf("Service-interest groups (ST, n=%d, %d seeds)", n, seeds),
		"services", "time mean", "service discovery", "conv",
	)
	for _, svc := range counts {
		var times, ratios []float64
		conv := 0
		for s := 0; s < seeds; s++ {
			cfg := core.PaperConfig(n, baseSeed+int64(s))
			cfg.Services = svc
			env, err := core.NewEnv(cfg)
			if err != nil {
				return nil, err
			}
			res := core.ST{}.Run(env)
			if res.Converged {
				conv++
			}
			times = append(times, float64(res.ConvergenceSlots))
			ratios = append(ratios, res.ServiceDiscovery)
		}
		t.AddRow(svc, metrics.Summarize(times).Mean, metrics.Summarize(ratios).Mean,
			fmt.Sprintf("%d/%d", conv, seeds))
	}
	return t, nil
}

// Mobility measures the re-discovery cost the paper defers to future work:
// devices walk (random waypoint at pedestrian speed) for walkSeconds
// between epochs; each epoch re-runs ST from scratch on the new geometry.
// Reported: re-convergence time, messages, and tree churn (fraction of the
// previous epoch's tree edges that survived the walk).
func Mobility(n, epochs int, walkSeconds float64, seed int64) (*metrics.Table, error) {
	if epochs < 2 {
		return nil, fmt.Errorf("experiments: mobility needs >= 2 epochs")
	}
	cfg := core.PaperConfig(n, seed)
	walkSrc := xrand.NewStreams(seed).Get("walk")
	positions := geo.UniformDeployment(n, cfg.Area, walkSrc)
	walkers := make([]*device.RandomWaypoint, n)
	const pedestrianMps = 1.4
	for i := range walkers {
		walkers[i] = device.NewRandomWaypoint(cfg.Area, pedestrianMps/1000, walkSrc)
	}
	walkSlots := int(walkSeconds * 1000)

	t := metrics.NewTable(
		fmt.Sprintf("ST under mobility (n=%d, %.0f s pedestrian walk between epochs)", n, walkSeconds),
		"epoch", "time", "msgs", "tree edges kept", "service discovery",
	)
	var prev []graph.Edge
	for epoch := 0; epoch < epochs; epoch++ {
		cfg.Seed = seed + int64(epoch)
		env, err := core.NewEnvAt(cfg, positions)
		if err != nil {
			return nil, err
		}
		res := core.ST{}.Run(env)
		kept := "-"
		if prev != nil {
			kept = fmt.Sprintf("%d/%d", sharedEdgeCount(prev, res.TreeEdges), len(prev))
		}
		t.AddRow(epoch, int64(res.ConvergenceSlots), res.Counters.TotalTx(), kept, res.ServiceDiscovery)
		prev = res.TreeEdges

		for s := 0; s < walkSlots; s++ {
			for i := range positions {
				positions[i] = walkers[i].Step(positions[i])
			}
		}
	}
	return t, nil
}

func sharedEdgeCount(a, b []graph.Edge) int {
	key := func(e graph.Edge) [2]int {
		if e.U < e.V {
			return [2]int{e.U, e.V}
		}
		return [2]int{e.V, e.U}
	}
	set := make(map[[2]int]bool, len(a))
	for _, e := range a {
		set[key(e)] = true
	}
	n := 0
	for _, e := range b {
		if set[key(e)] {
			n++
		}
	}
	return n
}

// AblationCapture sweeps the capture margin — the harshness of same-slot
// PS collisions: 0 dB (strongest always decodes), the default 6 dB, and a
// punishing 12 dB. Both protocols' alignment machinery rides on adoption
// handshakes rather than pulse delivery, so the sweep bounds how much the
// collision model matters. This is ablation H.
func AblationCapture(n int, seeds int, baseSeed int64) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Ablation H — capture margin (n=%d, %d seeds)", n, seeds),
		"margin dB", "proto", "time mean", "msgs mean", "conv",
	)
	for _, margin := range []float64{0, 6, 12} {
		for _, proto := range []core.Protocol{core.FST{}, core.ST{}} {
			var times, msgs []float64
			conv := 0
			for s := 0; s < seeds; s++ {
				cfg := core.PaperConfig(n, baseSeed+int64(s))
				cfg.CaptureMarginDB = margin
				env, err := core.NewEnv(cfg)
				if err != nil {
					return nil, err
				}
				res := proto.Run(env)
				if res.Converged {
					conv++
				}
				times = append(times, float64(res.ConvergenceSlots))
				msgs = append(msgs, float64(res.Counters.TotalTx()))
			}
			t.AddRow(margin, proto.Name(), metrics.Summarize(times).Mean,
				metrics.Summarize(msgs).Mean, fmt.Sprintf("%d/%d", conv, seeds))
		}
	}
	return t, nil
}

// Timeline samples one ST run every periodSamples periods and reports how
// neighbour discovery, service discovery and phase synchrony progress
// *simultaneously* — the paper's core pitch ("neighbour discovery as well
// as service discovery simultaneously ... achieves synchronization ...
// meanwhile") as a time series instead of a claim.
func Timeline(n int, seed int64) (*metrics.Table, error) {
	cfg := core.PaperConfig(n, seed)
	env, err := core.NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	type sample struct {
		slot    units.Slot
		links   int
		service float64
		order   float64
	}
	var samples []sample
	env.Cfg.ProgressEvery = units.Slot(cfg.PeriodSlots)
	env.Cfg.ProgressTrace = func(slot units.Slot) {
		links := 0
		for _, d := range env.Devices {
			links += d.Peers.Len()
		}
		samples = append(samples, sample{
			slot:    slot,
			links:   links,
			service: env.ServiceDiscoveryRatio(),
			order:   oscOrder(env),
		})
	}
	res := core.ST{}.Run(env)

	t := metrics.NewTable(
		fmt.Sprintf("ST timeline (n=%d, seed %d): discovery and synchrony progress together", n, seed),
		"slot", "links known", "service discovery", "order parameter r",
	)
	for _, s := range samples {
		t.AddRow(int64(s.slot), s.links, s.service, s.order)
	}
	t.AddRow("converged", int64(res.ConvergenceSlots), res.ServiceDiscovery, oscOrder(env))
	return t, nil
}

func oscOrder(env *core.Env) float64 {
	return oscillatorOrder(env.Phases())
}

// AblationChannel contrasts the light reading of Table I's stochastic
// terms (shadowing and fading drawn i.i.d. per PS) with the physical
// correlated forms (static Gudmundson shadowing field + block fading with a
// 50-slot coherence time). Correlated errors do not average out across a
// link's samples, so this bounds how much the headline results owe to the
// i.i.d. idealization. This is ablation G.
func AblationChannel(n int, seeds int, baseSeed int64) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Ablation G — channel correlation (n=%d, %d seeds)", n, seeds),
		"channel", "proto", "time mean", "msgs mean", "conv",
	)
	for _, correlated := range []bool{false, true} {
		for _, proto := range []core.Protocol{core.FST{}, core.ST{}} {
			var times, msgs []float64
			conv := 0
			for s := 0; s < seeds; s++ {
				cfg := core.PaperConfig(n, baseSeed+int64(s))
				cfg.CorrelatedChannel = correlated
				env, err := core.NewEnv(cfg)
				if err != nil {
					return nil, err
				}
				res := proto.Run(env)
				if res.Converged {
					conv++
				}
				times = append(times, float64(res.ConvergenceSlots))
				msgs = append(msgs, float64(res.Counters.TotalTx()))
			}
			label := "i.i.d. per sample"
			if correlated {
				label = "correlated (shadow field + block fading)"
			}
			t.AddRow(label, proto.Name(), metrics.Summarize(times).Mean,
				metrics.Summarize(msgs).Mean, fmt.Sprintf("%d/%d", conv, seeds))
		}
	}
	return t, nil
}

// ConvergenceDistribution runs many seeds at one size and reports the
// convergence-time distribution per protocol (percentiles, not just means —
// a protocol with a heavy tail is worse than its mean suggests), plus the
// Mann–Whitney p-value of the FST-vs-ST comparison.
func ConvergenceDistribution(n int, seeds int, baseSeed int64) (*metrics.Table, error) {
	if seeds < 3 {
		return nil, fmt.Errorf("experiments: need >= 3 seeds for a distribution")
	}
	t := metrics.NewTable(
		fmt.Sprintf("Convergence-time distribution (n=%d, %d seeds, slots)", n, seeds),
		"proto", "p10", "p50", "p90", "p99", "mean", "conv",
	)
	samples := map[string][]float64{}
	for _, proto := range []core.Protocol{core.FST{}, core.ST{}} {
		var times []float64
		conv := 0
		for s := 0; s < seeds; s++ {
			cfg := core.PaperConfig(n, baseSeed+int64(s))
			env, err := core.NewEnv(cfg)
			if err != nil {
				return nil, err
			}
			res := proto.Run(env)
			if res.Converged {
				conv++
			}
			times = append(times, float64(res.ConvergenceSlots))
		}
		samples[proto.Name()] = times
		t.AddRow(proto.Name(),
			metrics.Percentile(times, 10), metrics.Percentile(times, 50),
			metrics.Percentile(times, 90), metrics.Percentile(times, 99),
			metrics.Summarize(times).Mean, fmt.Sprintf("%d/%d", conv, seeds))
	}
	_, p := metrics.MannWhitneyU(samples["FST"], samples["ST"])
	t.AddRow("MW p-value", p, "", "", "", "", "")
	return t, nil
}

// Underlay quantifies the paper's headline motivation — "D2D communication
// underlaying cellular technology not only increases system capacity..." —
// on a single 500 m cell: k proximate D2D pairs reuse the uplink PRBs of 10
// cellular UEs (interference-aware greedy assignment), versus relaying the
// same traffic through the BS. Rates are Shannon bit/s/Hz on Table I path
// loss.
func Underlay(pairCounts []int, seed int64) (*metrics.Table, error) {
	if len(pairCounts) == 0 {
		pairCounts = []int{0, 2, 5, 10, 20}
	}
	const cell = 500.0
	maxPairs := 0
	for _, k := range pairCounts {
		if k > maxPairs {
			maxPairs = k
		}
	}
	streams := xrand.NewStreams(seed)
	src := streams.Get("underlay")
	area := geo.Square(cell)
	bs := area.Center()
	cellUEs := geo.UniformDeployment(10, area, src)
	pairs := make([][2]geo.Point, maxPairs)
	for i := range pairs {
		tx := geo.Point{X: src.Uniform(0, cell), Y: src.Uniform(0, cell)}
		rx := area.Clamp(geo.Point{X: tx.X + src.Uniform(-30, 30), Y: tx.Y + src.Uniform(-30, 30)})
		pairs[i] = [2]geo.Point{tx, rx}
	}

	t := metrics.NewTable(
		"D2D underlay capacity (bit/s/Hz; 10 cellular UEs, 500 m cell, greedy PRB reuse)",
		"D2D pairs", "cellular", "D2D", "underlay sum", "BS-relay sum", "gain",
	)
	for _, k := range pairCounts {
		s := spectrum.PaperScenario(bs, cellUEs, pairs[:k])
		assign := spectrum.GreedyAssign(s)
		under := s.Evaluate(assign)
		relay := s.CellularOnly(assign)
		gain := 0.0
		if relay.SumBpsHz > 0 {
			gain = under.SumBpsHz / relay.SumBpsHz
		}
		t.AddRow(k, under.CellularBpsHz, under.D2DBpsHz, under.SumBpsHz, relay.SumBpsHz, gain)
	}
	return t, nil
}

// TreeQuality compares the spanning trees the two protocols build, against
// the ideal maximum spanning tree of the true (zero-fading) proximity
// graph: the fraction of ideal tree weight recovered, and the hop stretch
// of routing over the tree instead of the full graph. FST ranks links by a
// single fading-corrupted RSSI sample, ST by the dB-domain mean — this
// table is where that difference becomes visible.
func TreeQuality(n int, seeds int, baseSeed int64) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Tree quality (n=%d, %d seeds)", n, seeds),
		"proto", "weight vs ideal", "mean stretch", "max stretch",
	)
	for _, proto := range []core.Protocol{core.FST{}, core.ST{}} {
		var quality, meanStretch, maxStretch []float64
		for s := 0; s < seeds; s++ {
			cfg := core.PaperConfig(n, baseSeed+int64(s))
			env, err := core.NewEnv(cfg)
			if err != nil {
				return nil, err
			}
			res := proto.Run(env)
			if len(res.TreeEdges) == 0 {
				continue
			}
			quality = append(quality, treeQuality(env, res))
			st := graph.Stretch(env.ReferenceGraph(), res.TreeEdges, graph.HopCost)
			meanStretch = append(meanStretch, st.Mean)
			maxStretch = append(maxStretch, st.Max)
		}
		t.AddRow(proto.Name(), metrics.Summarize(quality).Mean,
			metrics.Summarize(meanStretch).Mean, metrics.Summarize(maxStretch).Mean)
	}
	return t, nil
}

// DiscoverySchedules compares the classical neighbour-discovery baselines
// of the paper's related work ([4]–[9]) — birthday protocol and prime
// duty-cycling — against always-on periodic beaconing (what the firefly
// protocols effectively do), on a Table I deployment: discovery coverage,
// latency percentiles and awake time (the energy proxy).
func DiscoverySchedules(n int, seed int64, maxSlots int64) (*metrics.Table, error) {
	if n < 2 {
		return nil, fmt.Errorf("experiments: discovery needs >= 2 devices")
	}
	if maxSlots <= 0 {
		maxSlots = 60000
	}
	cfg := core.PaperConfig(n, seed)
	streams := xrand.NewStreams(seed)
	positions := geo.UniformDeployment(n, cfg.Area, streams.Get("deployment"))
	radius := 89.0 // deterministic Table I detection range

	scheds := []discovery.Schedule{
		discovery.NewAlwaysOnBeacon(n, cfg.PeriodSlots, xrand.NewStreams(seed+1)),
		discovery.NewBirthday(n, 0.05, 0.20, xrand.NewStreams(seed+2)),
		discovery.NewBirthday(n, 0.01, 0.05, xrand.NewStreams(seed+3)),
		discovery.NewPrimeDuty(n, []int{7, 11, 13}, 3),
	}
	t := metrics.NewTable(
		fmt.Sprintf("Neighbour-discovery baselines (n=%d, radius %.0f m, cap %d slots)", n, radius, maxSlots),
		"schedule", "duty", "coverage", "median slots", "p90 slots", "awake slots/dev",
	)
	for _, s := range scheds {
		res := discovery.Simulate(positions, radius, s, units.Slot(maxSlots))
		coverage := 0.0
		if res.Links > 0 {
			coverage = float64(res.Discovered) / float64(res.Links)
		}
		t.AddRow(res.Schedule, s.DutyCycle(), coverage, res.MedianSlots, res.P90Slots, res.AwakeSlotsPerDevice)
	}
	return t, nil
}

// ThreeWay compares the two distributed protocols against the
// infrastructure-assisted (BS) reference across a size sweep — the
// trade-off the paper's introduction frames: self-organization costs
// messages and time; infrastructure costs a base station.
func ThreeWay(sizes []int, seeds int, baseSeed int64) (*metrics.Table, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("experiments: no sizes")
	}
	t := metrics.NewTable(
		fmt.Sprintf("FST vs ST vs BS-assisted (%d seeds)", seeds),
		"nodes", "proto", "time mean", "msgs mean", "mJ/device", "conv",
	)
	for _, n := range sizes {
		for _, proto := range []core.Protocol{core.FST{}, core.ST{}, core.Centralized{}} {
			var times, msgs, mj []float64
			conv := 0
			for s := 0; s < seeds; s++ {
				cfg := core.PaperConfig(n, baseSeed+int64(s))
				env, err := core.NewEnv(cfg)
				if err != nil {
					return nil, err
				}
				res := proto.Run(env)
				if res.Converged {
					conv++
				}
				times = append(times, float64(res.ConvergenceSlots))
				msgs = append(msgs, float64(res.Counters.TotalTx()))
				mj = append(mj, res.Energy.PerDevice(n))
			}
			t.AddRow(n, proto.Name(), metrics.Summarize(times).Mean,
				metrics.Summarize(msgs).Mean, metrics.Summarize(mj).Mean,
				fmt.Sprintf("%d/%d", conv, seeds))
		}
	}
	return t, nil
}

// AblationSearch measures the firefly metaheuristic's pairwise-interaction
// counts for the basic O(n²) loop versus the ordered O(n log n) structure —
// the complexity argument of Section V in isolation. This is ablation C.
func AblationSearch(sizes []int, iterations int, seed int64) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Ablation C — Algorithm 3 interactions per %d iterations", iterations),
		"n", "basic (n^2)", "ordered (n log n)", "speedup",
	)
	for _, n := range sizes {
		p := firefly.DefaultParams(n, 2, -10, 10)
		p.Iterations = iterations
		naive, err := firefly.Run(p, firefly.Sphere([]float64{0, 0}), xrand.NewStream(seed))
		if err != nil {
			return nil, err
		}
		ordered, err := firefly.RunOrdered(p, firefly.Sphere([]float64{0, 0}), xrand.NewStream(seed))
		if err != nil {
			return nil, err
		}
		speedup := float64(naive.Interactions) / float64(ordered.Interactions)
		t.AddRow(n, float64(naive.Interactions), float64(ordered.Interactions), speedup)
	}
	return t, nil
}
