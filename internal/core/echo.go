package core

import (
	"repro/internal/rach"
	"repro/internal/snapshot"
	"repro/internal/units"
)

// echoState ferries absorption echoes between the cascade waves of one
// slot. Under a message adversary a delayed pulse can absorb its receiver
// into the sender's beat (a virtual fire at the adopted epoch, see
// oscillator.OnPulseSent); the fire itself cannot be announced — its slot
// already passed — so the receiver transmits an echo instead: a pulse sent
// in the current slot but stamped with the adopted epoch. Echoes ride the
// ordinary transport (collisions, capture and fault filtering apply at the
// transmission slot) and the ordinary adversary queue; only the message's
// send-slot field carries the older epoch, which the receiver-side
// age-compensated coupling already knows how to judge. They are what lets
// absorption cascade under delay the way same-slot avalanches do in
// lockstep. Virtual fires cannot occur without an adversary, so none of
// this state exists on the degenerate path.
//
// Buffers are double-buffered like the engines' fire waves: echoes
// collected while processing wave k transmit with wave k+1. The wave loop
// starts every slot on buffer 0 and does not clear a buffer after sending
// it, so when a slot ends after an odd number of waves buffer 0 still holds
// the last wave's echoes and the next stepped slot sends them again. That
// buffer is therefore run state: checkpoints capture it (state/restore).
// Buffer 1 is always cleared before it is filled, so it never carries over.
type echoState struct {
	ids     [2][]int
	epochs  [2][]units.Slot
	val     []units.Slot // device-indexed epoch during stamping (0 = none)
	sendBuf []int        // merged fires+echoes sender list
}

func newEchoState(n int) *echoState {
	return &echoState{val: make([]units.Slot, n)}
}

func (ec *echoState) reset(buf int) {
	ec.ids[buf] = ec.ids[buf][:0]
	ec.epochs[buf] = ec.epochs[buf][:0]
}

func (ec *echoState) pending(buf int) bool { return len(ec.ids[buf]) > 0 }

// state captures buffer 0 for a checkpoint: nil when the buffer is empty or
// the run has no echo state (no message adversary).
func (ec *echoState) state() *snapshot.EchoState {
	if ec == nil || !ec.pending(0) {
		return nil
	}
	st := &snapshot.EchoState{IDs: append([]int(nil), ec.ids[0]...)}
	for _, ep := range ec.epochs[0] {
		st.Epochs = append(st.Epochs, int64(ep))
	}
	return st
}

// restore installs a checkpoint's buffer 0 into a freshly built engine's
// empty buffers (nil = nothing pending). A run without a message adversary
// has no echo state and nothing to restore.
func (ec *echoState) restore(st *snapshot.EchoState) {
	if ec == nil || st == nil {
		return
	}
	ec.ids[0] = append(ec.ids[0], st.IDs...)
	for _, ep := range st.Epochs {
		ec.epochs[0] = append(ec.epochs[0], units.Slot(ep))
	}
}

// collect records an echo of epoch for device id. Delivery lists are
// receiver-grouped, so a device re-absorbed within one wave arrives as a
// consecutive duplicate and collapses to the latest epoch instead of
// transmitting twice.
func (ec *echoState) collect(buf, id int, epoch units.Slot) {
	if k := len(ec.ids[buf]); k > 0 && ec.ids[buf][k-1] == id {
		ec.epochs[buf][k-1] = epoch
		return
	}
	ec.ids[buf] = append(ec.ids[buf], id)
	ec.epochs[buf] = append(ec.epochs[buf], epoch)
}

// senders returns the wave extended with buf's echo transmitters (the wave
// slice itself when there are none). The echo ids follow the fires, both in
// ascending device order, so every engine reproduces the same transmission
// order and the transport's shared-stream draws stay engine-invariant.
func (ec *echoState) senders(wave []int, buf int) []int {
	if len(ec.ids[buf]) == 0 {
		return wave
	}
	ec.sendBuf = append(ec.sendBuf[:0], wave...)
	ec.sendBuf = append(ec.sendBuf, ec.ids[buf]...)
	return ec.sendBuf
}

// stamp rewrites the send slot of every delivery transmitted by one of
// buf's echo senders to the adopted epoch. Transport physics (collision
// groups, RSSI, preamble draws) already resolved at the true transmission
// slot; only the message's protocol-level epoch changes.
func (ec *echoState) stamp(dels []rach.Delivery, buf int) {
	if len(ec.ids[buf]) == 0 {
		return
	}
	for i, id := range ec.ids[buf] {
		ec.val[id] = ec.epochs[buf][i]
	}
	for i := range dels {
		if ep := ec.val[dels[i].Msg.From]; ep != 0 {
			dels[i].Msg.Slot = ep
		}
	}
	for _, id := range ec.ids[buf] {
		ec.val[id] = 0
	}
}

// sortEchoPairs sorts the (id, epoch) pairs by id — insertion sort, since
// cross-shard echo merges are small and this keeps the hot loop free of
// closure allocations.
func sortEchoPairs(ids []int, eps []units.Slot) {
	for i := 1; i < len(ids); i++ {
		id, ep := ids[i], eps[i]
		j := i - 1
		for j >= 0 && ids[j] > id {
			ids[j+1], eps[j+1] = ids[j], eps[j]
			j--
		}
		ids[j+1], eps[j+1] = id, ep
	}
}
