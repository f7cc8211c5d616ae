package device

import "repro/internal/units"

// PeerTable is a device's discovery table: one entry per peer it has heard
// a PS from, holding the running RSSI statistics and whether the peer shares
// the device's service tag (application-level discovery).
//
// Entries sit in first-discovery order in parallel dense slices, so a full
// scan (the FST join search, the neighbour-table snapshots) walks contiguous
// memory instead of iterating a hash map. A small open-addressing index maps
// peer id to position for Observe and Get. Positions are stable: entries are
// only ever appended, never removed or reordered.
//
// The zero value is an empty table ready for use.
type PeerTable struct {
	ids   []int32
	stats []RSSIStat
	svc   []bool
	// index holds position+1 per hash slot (0 = empty); its length is 0 or
	// a power of two kept at least twice the entry count, so linear probes
	// stay short. shift is 32 − log2(len(index)).
	index []int32
	shift uint32
}

// Len returns the number of discovered peers.
func (t *PeerTable) Len() int { return len(t.ids) }

// At returns the k-th entry in first-discovery order, 0 <= k < Len().
func (t *PeerTable) At(k int) (peer int, stat RSSIStat) {
	return int(t.ids[k]), t.stats[k]
}

// NextAcross returns the first position at or after k whose peer lies on
// the other side of a cut from this device — side[peer] != own — or Len()
// when none remains. It is the tight inner loop of cut scans such as the
// FST join search, which only weighs edges leaving the tree. side must be
// indexed by peer id.
func (t *PeerTable) NextAcross(k int, side []bool, own bool) int {
	ids := t.ids
	for ; k < len(ids); k++ {
		if side[ids[k]] != own {
			return k
		}
	}
	return len(ids)
}

// ServiceAt reports whether the k-th entry shares the device's service tag.
func (t *PeerTable) ServiceAt(k int) bool { return t.svc[k] }

// Get returns the statistics held for peer and whether it was discovered.
func (t *PeerTable) Get(peer int) (RSSIStat, bool) {
	if k := t.find(peer); k >= 0 {
		return t.stats[k], true
	}
	return RSSIStat{}, false
}

// IsService reports whether peer was discovered with a matching service tag.
func (t *PeerTable) IsService(peer int) bool {
	k := t.find(peer)
	return k >= 0 && t.svc[k]
}

// Observe folds one received PS from peer into the table: the peer's RSSI
// statistics extend by rssi, and a service match marks it as a service peer
// (a mark is never cleared).
func (t *PeerTable) Observe(peer int, rssi units.DBm, service bool) {
	if k := t.find(peer); k >= 0 {
		t.stats[k] = t.stats[k].Add(rssi)
		if service {
			t.svc[k] = true
		}
		return
	}
	t.Insert(peer, RSSIStat{}.Add(rssi), service)
}

// Insert appends an entry for a peer that is not in the table yet; a
// checkpoint restore rebuilds tables this way from peer-sorted, duplicate-
// free lists.
func (t *PeerTable) Insert(peer int, stat RSSIStat, service bool) {
	if 2*(len(t.ids)+1) > len(t.index) {
		t.grow()
	}
	t.ids = append(t.ids, int32(peer))
	t.stats = append(t.stats, stat)
	t.svc = append(t.svc, service)
	t.place(peer, int32(len(t.ids)))
}

// slot is the index's home slot for peer: Fibonacci hashing of the id into
// the top bits, so consecutive ids spread across the index.
func (t *PeerTable) slot(peer int) int {
	return int(uint32(peer) * 0x9E3779B1 >> t.shift)
}

// find returns peer's position, or -1 when it is not in the table.
func (t *PeerTable) find(peer int) int {
	if len(t.index) == 0 {
		return -1
	}
	mask := len(t.index) - 1
	for h := t.slot(peer); ; h = (h + 1) & mask {
		p := t.index[h]
		if p == 0 {
			return -1
		}
		if int(t.ids[p-1]) == peer {
			return int(p - 1)
		}
	}
}

// place records position pos (1-based) for peer in the first free slot of
// its probe sequence.
func (t *PeerTable) place(peer int, pos int32) {
	mask := len(t.index) - 1
	h := t.slot(peer)
	for t.index[h] != 0 {
		h = (h + 1) & mask
	}
	t.index[h] = pos
}

// grow doubles the index (minimum 8 slots) and re-places every entry.
func (t *PeerTable) grow() {
	size := 2 * len(t.index)
	if size < 8 {
		size = 8
	}
	t.index = make([]int32, size)
	t.shift = 32
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	for k, id := range t.ids {
		t.place(int(id), int32(k+1))
	}
}
