package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/asyncnet"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rach"
)

// fingerprint is the engine-independent part of a Result: the simulated
// statistics a speed-only change must leave bit-identical. ActiveSlots,
// TotalSlots and every timing are left out because they depend on the
// engine. Floats are kept as their IEEE-754 bits.
type fingerprint struct {
	Protocol         string
	N                int
	Converged        bool
	ConvergenceSlots int64
	Counters         rach.Counters
	Ops              uint64
	TreeEdges        [][3]uint64 // U, V, weight bits
	TreePhases       int
	TreeWeight       uint64
	DiscoveredLinks  int
	Energy           [4]uint64 // tx, rx, idle, total mJ
	ServiceDiscovery uint64
	Repairs          int
	Recoveries       int
	RecoverySlots    int64
	Net              *asyncnet.Counters
}

func fingerprintOf(r core.Result) fingerprint {
	fp := fingerprint{
		Protocol:         r.Protocol,
		N:                r.N,
		Converged:        r.Converged,
		ConvergenceSlots: int64(r.ConvergenceSlots),
		Counters:         r.Counters,
		Ops:              r.Ops,
		TreePhases:       r.TreePhases,
		TreeWeight:       math.Float64bits(r.TreeWeight),
		DiscoveredLinks:  r.DiscoveredLinks,
		Energy: [4]uint64{math.Float64bits(r.Energy.TxMJ), math.Float64bits(r.Energy.RxMJ),
			math.Float64bits(r.Energy.IdleMJ), math.Float64bits(r.Energy.TotalMJ)},
		ServiceDiscovery: math.Float64bits(r.ServiceDiscovery),
		Repairs:          r.Repairs,
		Recoveries:       r.Recoveries,
		RecoverySlots:    int64(r.RecoverySlots),
		Net:              r.Net,
	}
	for _, e := range r.TreeEdges {
		fp.TreeEdges = append(fp.TreeEdges, [3]uint64{uint64(e.U), uint64(e.V), math.Float64bits(e.Weight)})
	}
	return fp
}

// digest is the first 16 hex digits of the SHA-256 of v's JSON encoding
// (map keys sorted, so equal values give equal digests).
func digest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // fingerprints hold only JSON-encodable fields
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// checkRun applies the checks that need no pinned values: the run
// converged and, for ST, the tree is acyclic and spans the live devices
// (every device when alive is nil).
func checkRun(r core.Result, alive []bool) error {
	if !r.Converged {
		return fmt.Errorf("%s n=%d did not converge within %d slots", r.Protocol, r.N, r.ConvergenceSlots)
	}
	if r.Protocol != "ST" {
		return nil
	}
	return checkTree(r.N, r.TreeEdges, alive)
}

// checkTree reports whether edges form a spanning tree of the live devices.
func checkTree(n int, edges []graph.Edge, alive []bool) error {
	live := n
	if alive != nil {
		live = 0
		for _, a := range alive {
			if a {
				live++
			}
		}
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return fmt.Errorf("tree edge %v out of range [0,%d)", e, n)
		}
		if alive != nil && (!alive[e.U] || !alive[e.V]) {
			return fmt.Errorf("tree edge %v touches a crashed device", e)
		}
		ru, rv := find(e.U), find(e.V)
		if ru == rv {
			return fmt.Errorf("tree edge %v closes a cycle", e)
		}
		parent[ru] = rv
	}
	if len(edges) != live-1 {
		return fmt.Errorf("tree has %d edges over %d live devices, want %d", len(edges), live, live-1)
	}
	return nil
}

// pinFile holds the fingerprints of the first operations of each workload at
// one run seed; see storePins.
type pinFile struct {
	Seed         int64               `json:"seed"`
	Fingerprints map[string][]string `json:"fingerprints"`
}

//go:embed pins.json
var pinsJSON []byte

var pins = func() pinFile {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic(fmt.Sprintf("pins.json: %v", err))
	}
	return p
}()

// checkPin compares operation i's fingerprint with the pinned one, when the
// run seed and operation are pinned.
func checkPin(workload string, seed int64, i int, fp string) error {
	want := pins.Fingerprints[workload]
	if seed != pins.Seed || i >= len(want) || want[i] == fp {
		return nil
	}
	return fmt.Errorf("fingerprint %s differs from the one pinned for seed %d op %d: %s", fp, seed, i, want[i])
}

// pinsPath is the pin file, relative to the repository root.
const pinsPath = "perfbench/pins.json"

// storePins runs ops operations of w at seed and writes their fingerprints
// into the pin file, keeping the other workloads' entries.
func storePins(w *workload, seed int64, ops int) error {
	p := pins
	if p.Seed != seed {
		p = pinFile{Seed: seed}
	}
	if p.Fingerprints == nil {
		p.Fingerprints = map[string][]string{}
	}
	var fps []string
	for i := 0; i < ops; i++ {
		out, err := w.run(opSeed(seed, i), nil)
		if err != nil {
			return fmt.Errorf("%s op %d: %w", w.name, i, err)
		}
		fps = append(fps, out.fingerprint)
	}
	p.Fingerprints[w.name] = fps
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(pinsPath, append(data, '\n'), 0o644)
}
