package amqp

import (
	"reflect"
	"testing"
)

// TestDispatchConfirmResolvesEachTagOnce feeds a channel the confirm
// stream a batching broker produces — multiple-acks interleaved with
// single verdicts that overtake them — and checks every publish is
// confirmed exactly once with its own verdict, on a plain channel (client
// seq = broker tag) and on a reconnect-tracked one whose log a replay
// renumbered (client seq = broker tag + 100).
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
		ch.log.keep = tracked
		n := uint64(12)
		if tracked {
			n += offset
		}
		for i := uint64(0); i < n; i++ {
			ch.log.append(&pendingPublish{})
		}
		if tracked {
			// The first 100 are confirmed on a transport that then dies; the
			// replay renumbers the other 12 to tags 1..12.
			ch.log.resolve(offset, true)
			ch.log.cut()
			if k := len(ch.log.replay(nil)); k != 12 {
				t.Fatalf("replay republishes %d publishes, want 12", k)
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
		if left := len(ch.log.q) - ch.log.head; left != 0 || ch.log.base != 12 {
			t.Errorf("tracked=%v: log holds %d publishes past tag %d; want 0 past 12", tracked, left, ch.log.base)
		}
	}
}
