package main

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
)

// Body layout, shared by every workload:
//
//	[0:8)   message sequence number, stamped at publish time
//	[8:12)  payload id (index into the pool), fixed per pool body
//	[12:16) CRC-32C of body[16:], fixed per pool body
//	[16:)   seeded random bytes
//
// Only the sequence number changes between uses of a pool body, so the
// producer never copies or re-checksums a payload on the timed path.
const bodyHeader = 16

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcEvery is the sampling stride of the full-body checksum on timed
// messages: length, sequence and payload id are checked on every
// delivery, the CRC on every crcEvery-th (and on every warm-up message),
// so verification stays far below the cost of the stack it checks.
const crcEvery = 16

// pool is the pre-generated set of message bodies for one run. It is
// large enough (>= 64 MiB or 4096 bodies) that wire's size-class buffer
// pools and the CPU caches are not artificially hot.
type pool struct {
	bodies [][]byte
	size   int
}

// newPool builds count bodies of size bytes from the seed: the same seed
// gives byte-identical inputs.
func newPool(seed int64, size, count int) *pool {
	if size < bodyHeader {
		size = bodyHeader
	}
	rng := rand.New(rand.NewSource(seed))
	p := &pool{bodies: make([][]byte, count), size: size}
	backing := make([]byte, size*count)
	rng.Read(backing)
	for i := range p.bodies {
		b := backing[i*size : (i+1)*size : (i+1)*size]
		binary.BigEndian.PutUint64(b[0:8], 0)
		binary.BigEndian.PutUint32(b[8:12], uint32(i))
		binary.BigEndian.PutUint32(b[12:16], crc32.Checksum(b[bodyHeader:], castagnoli))
		p.bodies[i] = b
	}
	return p
}

// stamp returns the pool body for seq with the sequence number written in.
func (p *pool) stamp(seq uint64) []byte {
	b := p.bodies[seq%uint64(len(p.bodies))]
	binary.BigEndian.PutUint64(b[0:8], seq)
	return b
}

// bodyFault names what a received body failed on.
type bodyFault int

const (
	bodyOK bodyFault = iota
	bodyBadLen
	bodyBadID
	bodyBadCRC
)

// check verifies a received body against the pool and returns its
// sequence number. The full CRC runs on every crcEvery-th sequence
// number, or on every body when all is set.
func (p *pool) check(body []byte, all bool) (uint64, bodyFault) {
	if len(body) != p.size {
		return 0, bodyBadLen
	}
	seq := binary.BigEndian.Uint64(body[0:8])
	if uint64(binary.BigEndian.Uint32(body[8:12])) != seq%uint64(len(p.bodies)) {
		return seq, bodyBadID
	}
	if (all || seq%crcEvery == 0) && crc32.Checksum(body[bodyHeader:], castagnoli) != binary.BigEndian.Uint32(body[12:16]) {
		return seq, bodyBadCRC
	}
	return seq, bodyOK
}

// replySize is the feedback / gather reply body: sequence number, part
// index, and a CRC over both, padded to the 64 B the patterns use.
const replySize = 64

func putReply(buf []byte, seq uint64, part int) {
	binary.BigEndian.PutUint64(buf[0:8], seq)
	binary.BigEndian.PutUint32(buf[8:12], uint32(part))
	binary.BigEndian.PutUint32(buf[12:16], crc32.Checksum(buf[0:12], castagnoli))
}

func parseReply(body []byte) (seq uint64, part int, ok bool) {
	if len(body) != replySize {
		return 0, 0, false
	}
	if crc32.Checksum(body[0:12], castagnoli) != binary.BigEndian.Uint32(body[12:16]) {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(body[0:8]), int(binary.BigEndian.Uint32(body[8:12])), true
}
