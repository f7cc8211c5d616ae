package snapshot

import (
	"bytes"
	"testing"

	"repro/internal/ghs"
	"repro/internal/graph"
	"repro/internal/oscillator"
	"repro/internal/telemetry"
)

// richState builds a state exercising every optional section Clone must deep
// copy: an ST section with tree+repair GHS state and fault bookkeeping,
// telemetry accumulation, and adaptive-engine state.
func richState() *State {
	ghsState := func(shift float64) *ghs.ProtocolState {
		return &ghs.ProtocolState{
			N: 3,
			W: [][]ghs.Neighbor{
				{{Peer: 1, Weight: 0.5 + shift}},
				{{Peer: 0, Weight: 0.5 + shift}, {Peer: 2, Weight: 0.25}},
				{{Peer: 1, Weight: 0.25}},
			},
			UF:        graph.UnionFindState{Parent: []int{0, 0, 0}, Rank: []byte{1, 0, 0}, Count: 1},
			Fragments: []ghs.FragmentState{{Root: 0, Head: 0, Size: 3, Members: []int{0, 1, 2}}},
			TreeAdj:   [][]int{{1}, {0, 2}, {1}},
			Done:      true,
			Edges:     []graph.Edge{{U: 0, V: 1, Weight: 0.5 + shift}, {U: 1, V: 2, Weight: 0.25}},
			Phases:    2,
			Messages:  17,
		}
	}
	st := testState()
	st.Protocol = "ST"
	st.BS = nil
	st.FaultCursor = 3
	st.Telemetry = &telemetry.RunState{Samples: []telemetry.Sample{{}, {}}, Dropped: 1, Stepped: 120}
	st.Engine.Auto = &AutoState{Mode: "event", WindowStart: 100, DecideAt: 400, Eventful: 37}
	st.Engine.Echo = &EchoState{IDs: []int{0, 2}, Epochs: []int64{117, 118}}
	st.Devices[0].Osc.Queued = []oscillator.QueuedJumpState{{ApplyAt: 130, Delta: 0.1}}
	st.ST = &STState{
		Result:    ResultState{Converged: true, ConvergenceSlots: 90, Ops: 360, Repairs: 1},
		Detector:  oscillator.DetectorState{N: 3, WindowSlots: 5, StableRounds: 3, Stable: 1},
		Tree:      ghsState(0),
		Repair:    ghsState(0.125),
		Frag:      []int{0, 0, 0},
		NextMerge: 200,
		Faults: &STFaultState{
			LastFired:    []int64{88, 90, 0},
			PresumedDead: []bool{false, false, true},
			Rebooted:     []bool{false, false, false},
			RepairArmed:  true,
			NextWatch:    200,
		},
	}
	return st
}

func richFSTState() *State {
	st := testState()
	st.Protocol = "FST"
	st.BS = nil
	st.FST = &FSTState{
		Result:    ResultState{Ops: 12},
		Detector:  oscillator.DetectorState{N: 3, WindowSlots: 5, StableRounds: 3},
		InTree:    []bool{true, true, false},
		TreeEdges: []graph.Edge{{U: 0, V: 1, Weight: 0.75}},
		Joined:    2,
		NextRound: 128,
		Faults: &FSTFaultState{
			Parent:       []int{-1, 0, -1},
			LastFired:    []int64{100, 101, 0},
			PresumedDead: []bool{false, false, false},
			JoinedLive:   2,
			NextWatch:    200,
		},
	}
	return st
}

// Clone is pinned byte-equal to an Encode→Decode round trip: the encoded
// form of the clone must match the encoded form of the original exactly.
func TestCloneMatchesCodec(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   *State
	}{
		{"bs", testState()},
		{"st", richState()},
		{"fst", richFSTState()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := Encode(tc.st)
			if err != nil {
				t.Fatalf("Encode original: %v", err)
			}
			got, err := Encode(tc.st.Clone())
			if err != nil {
				t.Fatalf("Encode clone: %v", err)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("clone encodes differently from the original:\nwant %s\ngot  %s", want, got)
			}
		})
	}
}

// Mutating a clone through every slice and pointer must leave the original's
// encoded form untouched — fan-out restores many branches from one prefix.
func TestCloneIsDeep(t *testing.T) {
	st := richState()
	want, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	cp := st.Clone()
	cp.Streams[0].Pos = 999
	cp.Alive[0] = false
	cp.Devices[0].Osc.Phase = 0.999
	cp.Devices[0].Osc.Queued[0].Delta = 9
	cp.Devices[1].Peers[0].Count = 99
	cp.Devices[1].ServicePeers[0] = 2
	cp.Telemetry.Samples[0].Slot = 999
	cp.Telemetry.Dropped = 9
	cp.Engine.Auto.Mode = "slot"
	cp.Engine.Echo.IDs[0] = 1
	cp.Engine.Echo.Epochs[1] = 9
	cp.ST.Result.Ops = 9999
	cp.ST.Detector.Stable = 9
	cp.ST.Tree.W[1][0].Weight = 9
	cp.ST.Tree.UF.Parent[2] = 2
	cp.ST.Tree.UF.Rank[0] = 9
	cp.ST.Tree.Fragments[0].Members[0] = 2
	cp.ST.Tree.TreeAdj[1][0] = 9
	cp.ST.Tree.Edges[0].Weight = 9
	cp.ST.Repair.W[0][0].Peer = 2
	cp.ST.Frag[0] = 2
	cp.ST.Faults.LastFired[0] = 9
	cp.ST.Faults.PresumedDead[0] = true
	cp.ST.Faults.Rebooted[0] = true
	got, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("mutating the clone changed the original's encoding")
	}

	fst := richFSTState()
	want, err = Encode(fst)
	if err != nil {
		t.Fatal(err)
	}
	fcp := fst.Clone()
	fcp.FST.InTree[2] = true
	fcp.FST.TreeEdges[0].U = 2
	fcp.FST.Faults.Parent[1] = -1
	fcp.FST.Faults.LastFired[1] = 9
	fcp.FST.Faults.PresumedDead[1] = true
	got, err = Encode(fst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("mutating the FST clone changed the original's encoding")
	}
}

func TestCloneNil(t *testing.T) {
	var st *State
	if st.Clone() != nil {
		t.Error("nil.Clone() != nil")
	}
}
