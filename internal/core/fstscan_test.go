package core

import (
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/geo"
	"repro/internal/units"
)

// fstBestOutgoingMaps is the FST join search as it ran over Go-map discovery
// tables: the executable spec the dense-table scan in fstBestOutgoing must
// match pick for pick and op for op. Map iteration order is randomized, so
// agreement also shows the pick never depended on scan order.
func fstBestOutgoingMaps(tables []map[int]device.RSSIStat, alive, inTree []bool, liveOnly bool, presumed []bool, blocked func(int, int) bool, ops *uint64) (u, v int, ok bool) {
	best := -1e18
	for i, tbl := range tables {
		if liveOnly && !alive[i] {
			continue
		}
		if presumed != nil && presumed[i] {
			continue
		}
		*ops += uint64(len(tbl))
		for peer, stat := range tbl {
			if liveOnly && !alive[peer] {
				continue
			}
			if presumed != nil && presumed[peer] {
				continue
			}
			if blocked != nil && blocked(i, peer) {
				continue
			}
			var tu, tv int
			switch {
			case inTree[i] && !inTree[peer]:
				tu, tv = i, peer
			case !inTree[i] && inTree[peer]:
				tu, tv = peer, i
			default:
				continue
			}
			w := float64(stat.Last)
			if !ok || w > best || (w == best && (tu < u || (tu == u && tv < v))) {
				best, u, v, ok = w, tu, tv, true
			}
		}
	}
	return u, v, ok
}

// tableMaps copies every device's discovery table into a Go map.
func tableMaps(env *Env) []map[int]device.RSSIStat {
	out := make([]map[int]device.RSSIStat, len(env.Devices))
	for i, d := range env.Devices {
		out[i] = make(map[int]device.RSSIStat, d.Peers.Len())
		for k := 0; k < d.Peers.Len(); k++ {
			peer, stat := d.Peers.At(k)
			out[i][peer] = stat
		}
	}
	return out
}

// scanCase is one randomized join-search input.
type scanCase struct {
	inTree, presumed []bool
	liveOnly         bool
	blocked          func(int, int) bool
}

// randomScanCase draws tree membership (sometimes empty), fault filters and
// a partition predicate for an n-device network.
func randomScanCase(rng *rand.Rand, n int) scanCase {
	c := scanCase{inTree: make([]bool, n), liveOnly: rng.Intn(2) == 0}
	if rng.Intn(5) > 0 { // one case in five keeps the tree empty
		for i := range c.inTree {
			c.inTree[i] = rng.Intn(3) == 0
		}
	}
	if rng.Intn(2) == 0 {
		c.presumed = make([]bool, n)
		for i := range c.presumed {
			c.presumed[i] = rng.Intn(6) == 0
		}
	}
	if rng.Intn(2) == 0 {
		split := rng.Intn(n + 1)
		c.blocked = func(a, b int) bool { return (a < split) != (b < split) }
	}
	return c
}

// checkScan runs both searches on env and fails on any disagreement.
func checkScan(t *testing.T, label string, env *Env, c scanCase) {
	t.Helper()
	var wantOps, gotOps uint64
	wu, wv, wok := fstBestOutgoingMaps(tableMaps(env), env.Alive, c.inTree, c.liveOnly, c.presumed, c.blocked, &wantOps)
	gu, gv, gok := fstBestOutgoing(env, c.inTree, c.liveOnly, c.presumed, c.blocked, &gotOps)
	if wok != gok || (wok && (wu != gu || wv != gv)) {
		t.Fatalf("%s: pick differs: maps (%d,%d,%v) vs table (%d,%d,%v)", label, wu, wv, wok, gu, gv, gok)
	}
	if wantOps != gotOps {
		t.Fatalf("%s: ops differ: maps %d vs table %d", label, wantOps, gotOps)
	}
}

// TestFSTBestOutgoingMatchesMapSpec property-tests the dense scan against the
// map-based spec over random tables built in random discovery order. Last
// samples come from a three-value set, so equal weights — and with them the
// (tu, tv) tie-break — are common; dead, presumed-dead and blocked peers and
// empty trees are all drawn.
func TestFSTBestOutgoingMatchesMapSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lasts := []units.DBm{-90, -75, -60}
	for iter := 0; iter < 3000; iter++ {
		n := 1 + rng.Intn(24)
		env := &Env{Alive: make([]bool, n)}
		for i := 0; i < n; i++ {
			env.Alive[i] = rng.Intn(5) > 0
			d := device.New(i, geo.Point{}, 23, nil, 0)
			for _, peer := range rng.Perm(n) {
				if peer == i || rng.Intn(2) == 0 {
					continue
				}
				for s := 1 + rng.Intn(3); s > 0; s-- {
					d.ObservePS(peer, lasts[rng.Intn(len(lasts))], device.Service(rng.Intn(2)))
				}
			}
			env.Devices = append(env.Devices, d)
		}
		checkScan(t, "random", env, randomScanCase(rng, n))
	}
}

// TestFSTBestOutgoingMatchesMapSpecOnRun repeats the differential check on
// the discovery tables a real run leaves behind.
func TestFSTBestOutgoingMatchesMapSpecOnRun(t *testing.T) {
	env := mustEnv(t, fastConfig(60, 5))
	ST{}.Run(env)
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 200; iter++ {
		checkScan(t, "run", env, randomScanCase(rng, len(env.Devices)))
	}
}
