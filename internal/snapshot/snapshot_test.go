package snapshot

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/oscillator"
	"repro/internal/xrand"
)

// testState builds a small but fully populated valid state (BS section —
// the simplest of the three protocol sections).
func testState() *State {
	return &State{
		Protocol: "BS",
		Slot:     120,
		Seed:     42,
		N:        3,
		Streams: []xrand.Cursor{
			{Name: "deployment", Pos: 9},
			{Name: "phases", Pos: 3},
		},
		Devices: []DeviceState{
			{Osc: oscillator.State{Phase: 0.25, SegBase: 0.25, SegStep: 0.01, LastMat: 0.25, LastSlot: 120}},
			{
				Osc:          oscillator.State{Phase: 0.5, SegBase: 0, SegSteps: 50, SegStep: 0.01, LastMat: 0.5, LastSlot: 120},
				Peers:        []PeerStat{{Peer: 0, Count: 4, SumDB: -312.5, Last: -78.1}},
				ServicePeers: []int{0},
			},
			{Osc: oscillator.State{Phase: 0.9, SegBase: 0.9, SegStep: 0.01, LastMat: 0.9, LastSlot: 120}},
		},
		Alive:  []bool{true, true, true},
		Engine: EngineState{ActiveSlots: 120, TotalSlots: 120, LastSlot: 120},
		BS:     &BSState{Result: ResultState{Ops: 360}},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	st := testState()
	data, err := Encode(st)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Errorf("round trip changed the state:\nwant %+v\ngot  %+v", st, got)
	}
	// Encoding is deterministic — same state, same bytes — which is what
	// makes cross-engine snapshot comparison byte-exact.
	again, err := Encode(st)
	if err != nil {
		t.Fatalf("second Encode: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Error("two encodings of the same state differ")
	}
}

func TestEncodeNil(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Error("Encode(nil) succeeded")
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	data, err := Encode(testState())
	if err != nil {
		t.Fatal(err)
	}
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	env.Schema = Schema + 1
	skewed, err := json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(skewed); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("future schema not rejected with a schema error: %v", err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data, err := Encode(testState())
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the state payload: the digest must catch it even
	// when the result is still syntactically valid JSON.
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	tampered := append(json.RawMessage(nil), env.State...)
	i := bytes.Index(tampered, []byte(`"slot":120`))
	if i < 0 {
		t.Fatal("fixture lost its slot field")
	}
	tampered[i+len(`"slot":1`)] = '9'
	env.State = tampered
	bad, err := json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("tampered payload not rejected with a digest error: %v", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	data, err := Encode(testState())
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestDecodeRejectsInconsistentState(t *testing.T) {
	mutate := func(f func(*State)) []byte {
		st := testState()
		f(st)
		data, err := Encode(st)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		return data
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"zero n", mutate(func(s *State) { s.N = 0 })},
		{"zero slot", mutate(func(s *State) { s.Slot = 0 })},
		{"device count mismatch", mutate(func(s *State) { s.Devices = s.Devices[:2] })},
		{"alive count mismatch", mutate(func(s *State) { s.Alive = append(s.Alive, true) })},
		{"peer out of range", mutate(func(s *State) { s.Devices[1].Peers[0].Peer = 7 })},
		{"service peer out of range", mutate(func(s *State) { s.Devices[1].ServicePeers[0] = -1 })},
		{"service peer not discovered", mutate(func(s *State) { s.Devices[1].ServicePeers[0] = 2 })},
		{"peers out of order", mutate(func(s *State) {
			s.Devices[1].Peers = append(s.Devices[1].Peers, PeerStat{Peer: 0, Count: 1, SumDB: -70, Last: -70})
		})},
		{"service peers repeated", mutate(func(s *State) { s.Devices[1].ServicePeers = []int{0, 0} })},
		{"echo lengths differ", mutate(func(s *State) { s.Engine.Echo = &EchoState{IDs: []int{1}} })},
		{"echo section empty", mutate(func(s *State) { s.Engine.Echo = &EchoState{} })},
		{"echo device out of range", mutate(func(s *State) { s.Engine.Echo = &EchoState{IDs: []int{3}, Epochs: []int64{5}} })},
		{"echo epoch zero", mutate(func(s *State) { s.Engine.Echo = &EchoState{IDs: []int{1}, Epochs: []int64{0}} })},
		{"unnamed stream", mutate(func(s *State) { s.Streams[0].Name = "" })},
		{"negative fault cursor", mutate(func(s *State) { s.FaultCursor = -1 })},
		{"no protocol section", mutate(func(s *State) { s.BS = nil })},
		{"two protocol sections", mutate(func(s *State) { s.FST = &FSTState{InTree: make([]bool, s.N)} })},
		{"section/tag mismatch", mutate(func(s *State) { s.Protocol = "ST" })},
	}
	for _, c := range cases {
		if _, err := Decode(c.data); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
