package device

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/units"
)

func TestPeerTableZeroValueEmpty(t *testing.T) {
	var tbl PeerTable
	if tbl.Len() != 0 {
		t.Errorf("Len = %d, want 0", tbl.Len())
	}
	if _, ok := tbl.Get(3); ok {
		t.Error("empty table reported a peer")
	}
	if tbl.IsService(3) {
		t.Error("empty table reported a service peer")
	}
}

func TestPeerTableObserveGetLen(t *testing.T) {
	var tbl PeerTable
	tbl.Observe(9, -80, false)
	tbl.Observe(2, -70, true)
	tbl.Observe(9, -90, false)
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tbl.Len())
	}
	s, ok := tbl.Get(9)
	if !ok || s.Count != 2 || s.SumDB != -170 || s.Last != -90 {
		t.Errorf("Get(9) = %+v, %v; want count 2, sum -170, last -90", s, ok)
	}
	// Entries keep first-discovery order.
	if p, s := tbl.At(0); p != 9 || s.Count != 2 {
		t.Errorf("At(0) = %d %+v, want peer 9 with 2 samples", p, s)
	}
	if p, _ := tbl.At(1); p != 2 {
		t.Errorf("At(1) peer = %d, want 2", p)
	}
	if _, ok := tbl.Get(5); ok {
		t.Error("undiscovered peer reported")
	}
}

func TestPeerTableNextAcross(t *testing.T) {
	var tbl PeerTable
	for _, p := range []int{4, 1, 3, 0, 2} {
		tbl.Observe(p, -70, false)
	}
	side := []bool{true, false, true, false, true} // peers 0, 2, 4 on one side
	var got []int
	for k := tbl.NextAcross(0, side, false); k < tbl.Len(); k = tbl.NextAcross(k+1, side, false) {
		p, _ := tbl.At(k)
		got = append(got, p)
	}
	if want := []int{4, 0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("peers across from side false = %v, want %v", got, want)
	}
	if k := tbl.NextAcross(0, make([]bool, 5), false); k != tbl.Len() {
		t.Errorf("NextAcross with everything on one side = %d, want Len %d", k, tbl.Len())
	}
}

func TestPeerTableServiceFlagSticks(t *testing.T) {
	var tbl PeerTable
	tbl.Observe(4, -80, false)
	if tbl.IsService(4) || tbl.ServiceAt(0) {
		t.Fatal("non-matching observation marked a service peer")
	}
	tbl.Observe(4, -81, true)
	tbl.Observe(4, -82, false)
	if !tbl.IsService(4) || !tbl.ServiceAt(0) {
		t.Error("a service match must stay marked")
	}
}

// TestPeerTableMatchesMap drives the table and a reference map through the
// same random observations — enough peers to grow the index several times.
func TestPeerTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tbl PeerTable
	ref := make(map[int]RSSIStat)
	svc := make(map[int]bool)
	var order []int
	for i := 0; i < 20000; i++ {
		peer := rng.Intn(3000)
		rssi := units.DBm(-60 - 40*rng.Float64())
		match := rng.Intn(4) == 0
		if _, ok := ref[peer]; !ok {
			order = append(order, peer)
		}
		ref[peer] = ref[peer].Add(rssi)
		if match {
			svc[peer] = true
		}
		tbl.Observe(peer, rssi, match)
	}
	if tbl.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tbl.Len(), len(ref))
	}
	for k, want := range order {
		peer, stat := tbl.At(k)
		if peer != want || stat != ref[peer] || tbl.ServiceAt(k) != svc[peer] {
			t.Fatalf("entry %d = (%d, %+v, %v), want (%d, %+v, %v)",
				k, peer, stat, tbl.ServiceAt(k), want, ref[want], svc[want])
		}
		if got, ok := tbl.Get(peer); !ok || got != stat {
			t.Fatalf("Get(%d) = %+v, %v", peer, got, ok)
		}
	}
}

// TestPeerTableRebuild rebuilds a table the way a checkpoint restore does —
// Insert in peer order into an empty table — and checks the lookups and that
// later observations extend the restored statistics.
func TestPeerTableRebuild(t *testing.T) {
	var tbl PeerTable
	saved := []struct {
		peer int
		stat RSSIStat
		svc  bool
	}{
		{1, RSSIStat{Count: 3, SumDB: -240, Last: -79}, false},
		{7, RSSIStat{Count: 1, SumDB: -70, Last: -70}, true},
		{12, RSSIStat{Count: 2, SumDB: -150, Last: -74}, true},
	}
	for _, s := range saved {
		tbl.Insert(s.peer, s.stat, s.svc)
	}
	if tbl.Len() != len(saved) {
		t.Fatalf("Len = %d, want %d", tbl.Len(), len(saved))
	}
	for k, s := range saved {
		peer, stat := tbl.At(k)
		if peer != s.peer || stat != s.stat || tbl.ServiceAt(k) != s.svc {
			t.Errorf("entry %d = (%d, %+v), want (%d, %+v)", k, peer, stat, s.peer, s.stat)
		}
		if tbl.IsService(s.peer) != s.svc {
			t.Errorf("IsService(%d) = %v, want %v", s.peer, !s.svc, s.svc)
		}
	}
	tbl.Observe(12, -76, false)
	if s, _ := tbl.Get(12); s.Count != 3 || s.SumDB != -226 || s.Last != -76 {
		t.Errorf("observation after rebuild = %+v", s)
	}
}
