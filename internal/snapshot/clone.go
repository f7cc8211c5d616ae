package snapshot

import (
	"repro/internal/ghs"
	"repro/internal/graph"
	"repro/internal/oscillator"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// Clone returns a deep copy of the state: no slice or pointer is shared with
// the receiver, so a branch restored from the clone can never perturb the
// original (Config.Resume restores overlay snapshot slices into live engine
// state, and fan-out launches many branches from one captured prefix).
//
// The copy is pinned byte-equal to an Encode→Decode round trip by
// TestCloneMatchesCodec — Clone exists purely to skip the JSON marshal/
// unmarshal tax when a snapshot fans out in memory.
func (st *State) Clone() *State {
	if st == nil {
		return nil
	}
	cp := *st
	cp.Streams = append([]xrand.Cursor(nil), st.Streams...)
	cp.Alive = append([]bool(nil), st.Alive...)
	if st.Devices != nil {
		cp.Devices = make([]DeviceState, len(st.Devices))
		for i, d := range st.Devices {
			cp.Devices[i] = DeviceState{
				Osc:          cloneOsc(d.Osc),
				Peers:        append([]PeerStat(nil), d.Peers...),
				ServicePeers: append([]int(nil), d.ServicePeers...),
			}
		}
	}
	if st.Telemetry != nil {
		t := *st.Telemetry
		t.Samples = append([]telemetry.Sample(nil), st.Telemetry.Samples...)
		cp.Telemetry = &t
	}
	if st.Engine.Auto != nil {
		a := *st.Engine.Auto
		cp.Engine.Auto = &a
	}
	if e := st.Engine.Echo; e != nil {
		cp.Engine.Echo = &EchoState{
			IDs:    append([]int(nil), e.IDs...),
			Epochs: append([]int64(nil), e.Epochs...),
		}
	}
	cp.ST = cloneST(st.ST)
	cp.FST = cloneFST(st.FST)
	if st.BS != nil {
		b := *st.BS
		cp.BS = &b
	}
	return &cp
}

func cloneOsc(o oscillator.State) oscillator.State {
	o.Queued = append([]oscillator.QueuedJumpState(nil), o.Queued...)
	return o
}

func cloneST(s *STState) *STState {
	if s == nil {
		return nil
	}
	cp := *s
	cp.Tree = cloneGHS(s.Tree)
	cp.Repair = cloneGHS(s.Repair)
	cp.Frag = append([]int(nil), s.Frag...)
	if f := s.Faults; f != nil {
		fc := *f
		fc.LastFired = append([]int64(nil), f.LastFired...)
		fc.PresumedDead = append([]bool(nil), f.PresumedDead...)
		fc.Rebooted = append([]bool(nil), f.Rebooted...)
		cp.Faults = &fc
	}
	return &cp
}

func cloneFST(s *FSTState) *FSTState {
	if s == nil {
		return nil
	}
	cp := *s
	cp.InTree = append([]bool(nil), s.InTree...)
	cp.TreeEdges = append([]graph.Edge(nil), s.TreeEdges...)
	if f := s.Faults; f != nil {
		fc := *f
		fc.Parent = append([]int(nil), f.Parent...)
		fc.LastFired = append([]int64(nil), f.LastFired...)
		fc.PresumedDead = append([]bool(nil), f.PresumedDead...)
		cp.Faults = &fc
	}
	return &cp
}

func cloneGHS(g *ghs.ProtocolState) *ghs.ProtocolState {
	if g == nil {
		return nil
	}
	cp := *g
	cp.UF.Parent = append([]int(nil), g.UF.Parent...)
	cp.UF.Rank = append([]byte(nil), g.UF.Rank...)
	cp.Edges = append([]graph.Edge(nil), g.Edges...)
	if g.W != nil {
		cp.W = make([][]ghs.Neighbor, len(g.W))
		for i, row := range g.W {
			cp.W[i] = append([]ghs.Neighbor(nil), row...)
		}
	}
	if g.TreeAdj != nil {
		cp.TreeAdj = make([][]int, len(g.TreeAdj))
		for i, row := range g.TreeAdj {
			cp.TreeAdj[i] = append([]int(nil), row...)
		}
	}
	if g.Fragments != nil {
		cp.Fragments = make([]ghs.FragmentState, len(g.Fragments))
		for i, f := range g.Fragments {
			f.Members = append([]int(nil), f.Members...)
			cp.Fragments[i] = f
		}
	}
	return &cp
}
