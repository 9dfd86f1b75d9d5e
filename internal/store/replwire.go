package store

import "snmpv3fp/internal/wire"

// Replication wire protocol: a primary ships sealed segment files and
// manifest commits to read replicas over one TCP stream per replica, in the
// internal/wire frames the vantage protocol (DESIGN.md §14) uses too, so the
// stream needs no other synchronization.
//
// The session: the replica opens with Hello, naming the protocol version,
// its applied manifest seq horizon and every complete segment file it
// already holds. The primary then loops over published states: for each
// state it ships every listed segment the replica lacks (Seg header, Chunk
// bodies, SegDone), then a Commit carrying the rendered manifest and the
// primary's Stats JSON. A Commit only ever follows the segments it lists,
// so the replica can apply it atomically; everything before an applied
// Commit is recoverable, everything after is re-shipped on reconnect. The
// replica sends Ack frames after each apply, which is what the primary's
// lag accounting reads.

// Frame types. The numbering is part of the protocol; append, never
// renumber.
const (
	replFrameHello   byte = 1 // replica -> primary: version, seq horizon, held segments
	replFrameSeg     byte = 2 // primary -> replica: segment file header (name, size, crc)
	replFrameChunk   byte = 3 // primary -> replica: segment file bytes
	replFrameSegDone byte = 4 // primary -> replica: segment file complete
	replFrameCommit  byte = 5 // primary -> replica: manifest + stats, apply point
	replFrameAck     byte = 6 // replica -> primary: applied seq horizon
)

// replProtoVersion is echoed in Hello so a primary can reject replicas
// built against an incompatible codec.
const replProtoVersion = 1

// replChunkSize is how many segment-file bytes travel per Chunk frame,
// which keeps well-formed frames far below wire.MaxFrame.
const replChunkSize = 1 << 20

// replHello is the replica's opening frame.
type replHello struct {
	Version    uint32
	AppliedSeq uint64
	Held       []string
}

// replSeg announces one segment file about to be streamed.
type replSeg struct {
	Name string
	Size uint64
	CRC  uint32
}

// replCommit is the apply point: the rendered manifest file bytes and the
// primary's Stats JSON captured at the same publish.
type replCommit struct {
	Manifest []byte
	Stats    []byte
}

func appendReplHello(b []byte, h replHello) []byte {
	b = wire.AppendU32(b, h.Version)
	b = wire.AppendU64(b, h.AppliedSeq)
	b = wire.AppendU32(b, uint32(len(h.Held)))
	for _, name := range h.Held {
		b = wire.AppendStr16(b, name)
	}
	return b
}

func parseReplHello(body []byte) (replHello, error) {
	r := wire.NewReader(body)
	var h replHello
	h.Version = r.U32()
	h.AppliedSeq = r.U64()
	// Each held entry costs at least its 2-byte length.
	for n := r.Count(2); n > 0; n-- {
		h.Held = append(h.Held, r.Str16())
	}
	return h, r.Done()
}

func appendReplSeg(b []byte, s replSeg) []byte {
	b = wire.AppendStr16(b, s.Name)
	b = wire.AppendU64(b, s.Size)
	return wire.AppendU32(b, s.CRC)
}

func parseReplSeg(body []byte) (replSeg, error) {
	r := wire.NewReader(body)
	var s replSeg
	s.Name = r.Str16()
	s.Size = r.U64()
	s.CRC = r.U32()
	return s, r.Done()
}

func appendReplCommit(b []byte, c replCommit) []byte {
	b = wire.AppendBytes32(b, c.Manifest)
	return wire.AppendBytes32(b, c.Stats)
}

func parseReplCommit(body []byte) (replCommit, error) {
	r := wire.NewReader(body)
	var c replCommit
	c.Manifest = r.Bytes32()
	c.Stats = r.Bytes32()
	return c, r.Done()
}

// appendReplAck encodes the replica's applied seq horizon.
func appendReplAck(b []byte, appliedSeq uint64) []byte { return wire.AppendU64(b, appliedSeq) }

func parseReplAck(body []byte) (uint64, error) {
	r := wire.NewReader(body)
	seq := r.U64()
	return seq, r.Done()
}
