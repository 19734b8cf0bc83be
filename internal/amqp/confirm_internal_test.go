package amqp

import (
	"reflect"
	"testing"
)

// TestDispatchConfirmResolvesEachTagOnce feeds a channel the confirm
// stream a batching broker produces — multiple-acks interleaved with
// single verdicts that overtake them — and checks every publish is
// confirmed exactly once with its own verdict, on a plain channel and on
// a reconnect-tracked one (broker tags mapped through pubMap).
func TestDispatchConfirmResolvesEachTagOnce(t *testing.T) {
	stream := []struct {
		tag      uint64
		multiple bool
		ack      bool
		want     []uint64 // broker tags this verdict newly resolves
	}{
		{3, false, true, []uint64{3}},         // a bridged confirm overtakes the run below it
		{5, true, true, []uint64{1, 2, 4, 5}}, // the run: covers 3 again, confirms it no second time
		{7, false, false, []uint64{7}},        // nack
		{6, true, true, []uint64{6}},          // multiple below an already-seen tag
		{9, true, true, []uint64{8, 9}},       // covers the nacked 7, leaves its verdict alone
		{2, false, true, nil},                 // duplicates resolve nothing
		{9, true, true, nil},                  //
		{11, false, true, []uint64{11}},       // ahead of the frontier
		{10, false, true, []uint64{10}},       // fills the gap
		{12, true, true, []uint64{12}},        // frontier absorbed 11
	}
	const offset = 100 // client seq = broker tag + offset on the tracked channel
	for _, tracked := range []bool{false, true} {
		ch := &Channel{conn: &Connection{}, confirms: []chan Confirmation{make(chan Confirmation, 32)}}
		if tracked {
			ch.pending = map[uint64]*pendingPublish{}
			ch.pubMap = map[uint64]uint64{}
			for tag := uint64(1); tag <= 12; tag++ {
				ch.pending[tag+offset] = &pendingPublish{}
				ch.pubMap[tag] = tag + offset
			}
		}
		for _, v := range stream {
			ch.dispatchConfirm(v.tag, v.multiple, v.ack)
			var got []uint64
			for len(ch.confirms[0]) > 0 {
				c := <-ch.confirms[0]
				if c.Ack != v.ack {
					t.Errorf("tracked=%v: tag %d confirmed with ack=%v by a verdict with ack=%v", tracked, c.DeliveryTag, c.Ack, v.ack)
				}
				if tracked {
					c.DeliveryTag -= offset
				}
				got = append(got, c.DeliveryTag)
			}
			if !reflect.DeepEqual(got, v.want) {
				t.Errorf("tracked=%v: verdict {%d multiple=%v} resolved %v, want %v", tracked, v.tag, v.multiple, got, v.want)
			}
		}
		if len(ch.pending) != 0 || len(ch.pubMap) != 0 {
			t.Errorf("tracked channel left %d pending, %d mapped", len(ch.pending), len(ch.pubMap))
		}
		if ch.confirmExpect != 12 || len(ch.confirmAhead) != 0 {
			t.Errorf("tracked=%v: frontier %d, %d ahead; want 12, 0", tracked, ch.confirmExpect, len(ch.confirmAhead))
		}
	}
}
