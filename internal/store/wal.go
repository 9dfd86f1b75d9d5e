package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The write-ahead log makes every acknowledged mutation durable before the
// caller sees success. Each memtable generation owns its own WAL file
// (rotation at freeze time), so truncating the log after a flush is a file
// delete, never an in-place rewrite racing concurrent appends.
//
// Record framing, little-endian:
//
//	u32 payloadLen | u32 crc32c(payload) | payload
//
// payload := recordType byte | body. Two record types exist: a campaign
// boundary (uvarint campaign number) and a sample (see appendSampleEnc).
// Replay accepts the longest valid prefix: a torn or checksum-failing
// record ends the log exactly there, and recovery truncates the file at
// that offset so the garbage tail can never shadow later appends.

const (
	walRecBegin  = 1 // BeginCampaign boundary
	walRecSample = 2 // one ingested sample
)

// walMaxRecord bounds a record payload; larger length prefixes are treated
// as corruption (a torn length field can otherwise claim gigabytes).
const walMaxRecord = 1 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendUint32 appends v little-endian.
func appendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// appendSampleEnc appends the binary encoding of one sample: IP
// (length-prefixed 4 or 16 bytes), campaign, seq, engine ID, boots, engine
// time, receive instant (unix seconds + nanos), packet count and the
// inconsistency flag. The same encoding is the segment file's sample block
// entry.
func appendSampleEnc(b []byte, s *Sample) []byte {
	if s.IP.Is4() {
		a := s.IP.As4()
		b = append(b, 4)
		b = append(b, a[:]...)
	} else {
		a := s.IP.As16()
		b = append(b, 16)
		b = append(b, a[:]...)
	}
	b = binary.AppendUvarint(b, s.Campaign)
	b = binary.AppendUvarint(b, s.Seq)
	b = binary.AppendUvarint(b, uint64(len(s.EngineID)))
	b = append(b, s.EngineID...)
	b = binary.AppendVarint(b, s.Boots)
	b = binary.AppendVarint(b, s.EngineTime)
	b = binary.AppendVarint(b, s.ReceivedAt.Unix())
	b = binary.AppendUvarint(b, uint64(s.ReceivedAt.Nanosecond()))
	b = binary.AppendUvarint(b, uint64(s.Packets))
	inc := byte(0)
	if s.Inconsistent {
		inc = 1
	}
	b = append(b, inc)
	// Protocol tag (schema v2; "" = SNMPv3). Always encoded: sample
	// entries are concatenated back to back in segment sample blocks, so
	// an optional trailing field would be ambiguous.
	b = binary.AppendUvarint(b, uint64(len(s.Protocol)))
	return append(b, s.Protocol...)
}

// idArena hands out engine-ID copies carved from shared chunks, so a decode
// pass allocates once per chunk instead of once per sample. The copies are
// never slices of a segment mapping: a compacted segment's finalizer unmaps
// it while derived state and query results still hold its engine IDs. A
// chunk stays alive while any copy in it does, so whoever retains only a
// few of the samples decoded copies those IDs into an arena of its own.
type idArena struct {
	buf []byte
	// proto is the last protocol tag decoded; evidence samples of one
	// protocol arrive in runs, so the string is converted once per run.
	proto string
}

// idArenaMaxChunk caps chunk growth: chunks start small (a point lookup
// decodes a sample or two) and double up to this size.
const idArenaMaxChunk = 16 << 10

// copy returns a copy of b (nil for an empty b). The copy's capacity is its
// length, so an append by its holder reallocates rather than overwriting
// the next copy.
func (a *idArena) copy(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	if cap(a.buf)-len(a.buf) < len(b) {
		size := min(max(2*cap(a.buf), 32), idArenaMaxChunk)
		a.buf = make([]byte, 0, max(size, len(b)))
	}
	n := len(a.buf)
	a.buf = append(a.buf, b...)
	return a.buf[n:len(a.buf):len(a.buf)]
}

// protocol returns b as a string, reusing the previous conversion while the
// tag repeats.
func (a *idArena) protocol(b []byte) string {
	if string(b) != a.proto {
		a.proto = string(b)
	}
	return a.proto
}

// decodeSampleEnc decodes one appendSampleEnc payload into s, overwriting
// every field, and returns the number of bytes consumed. The engine ID is
// copied into ids. On error s is left partially written.
func decodeSampleEnc(b []byte, s *Sample, ids *idArena) (int, error) {
	fail := func(what string) (int, error) {
		return 0, fmt.Errorf("store: sample decode: truncated %s", what)
	}
	if len(b) < 1 {
		return fail("ip length")
	}
	ipLen, off := int(b[0]), 1
	if (ipLen != 4 && ipLen != 16) || len(b) < off+ipLen {
		return fail("ip")
	}
	if ipLen == 4 {
		s.IP = netip.AddrFrom4([4]byte(b[off : off+4]))
	} else {
		s.IP = netip.AddrFrom16([16]byte(b[off : off+16]))
	}
	off += ipLen
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	sv := func() (int64, bool) {
		v, n := binary.Varint(b[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	var ok bool
	if s.Campaign, ok = uv(); !ok {
		return fail("campaign")
	}
	if s.Seq, ok = uv(); !ok {
		return fail("seq")
	}
	idLen, ok := uv()
	if !ok || idLen > walMaxRecord || len(b) < off+int(idLen) {
		return fail("engine id")
	}
	s.EngineID = ids.copy(b[off : off+int(idLen)])
	off += int(idLen)
	if s.Boots, ok = sv(); !ok {
		return fail("boots")
	}
	if s.EngineTime, ok = sv(); !ok {
		return fail("engine time")
	}
	sec, ok := sv()
	if !ok {
		return fail("receive seconds")
	}
	nsec, ok := uv()
	if !ok {
		return fail("receive nanos")
	}
	s.ReceivedAt = time.Unix(sec, int64(nsec)).UTC()
	pk, ok := uv()
	if !ok {
		return fail("packets")
	}
	s.Packets = int(pk)
	if len(b) < off+1 {
		return fail("flags")
	}
	s.Inconsistent = b[off] == 1
	off++
	protoLen, ok := uv()
	if !ok || protoLen > walMaxRecord || len(b) < off+int(protoLen) {
		return fail("protocol")
	}
	s.Protocol = ""
	if protoLen > 0 {
		s.Protocol = ids.protocol(b[off : off+int(protoLen)])
	}
	off += int(protoLen)
	return off, nil
}

// appendWALRecord frames one payload (length + CRC) onto b.
func appendWALRecord(b, payload []byte) []byte {
	b = appendUint32(b, uint32(len(payload)))
	b = appendUint32(b, crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// appendWALSample frames a sample record onto b, encoding the payload in
// place and back-filling its length and CRC, so the only allocation is b's
// own growth. The bytes equal appendWALRecord over a separately built
// payload.
func appendWALSample(b []byte, s *Sample) []byte {
	hdr := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0, walRecSample)
	b = appendSampleEnc(b, s)
	payload := b[hdr+8:]
	binary.LittleEndian.PutUint32(b[hdr:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[hdr+4:], crc32.Checksum(payload, castagnoli))
	return b
}

// appendWALBegin frames a campaign-boundary record onto b.
func appendWALBegin(b []byte, campaign uint64) []byte {
	payload := make([]byte, 0, 12)
	payload = append(payload, walRecBegin)
	payload = binary.AppendUvarint(payload, campaign)
	return appendWALRecord(b, payload)
}

// walFile is one open WAL file. Appends are serialized by the store mutex
// (preserving seq order on disk); the file's own mutex protects the fd and
// sync bookkeeping against the committers that fsync outside the store
// lock and the flusher that retires the file.
type walFile struct {
	name string // base name within the store dir

	mu     sync.Mutex
	f      *os.File
	size   int64 // bytes appended
	synced int64 // bytes known durable
	closed bool  // set only after the samples are durable in a segment
}

// append writes p (one or more framed records) and returns the end offset
// the caller must sync through before acknowledging.
func (w *walFile) append(d *disk, p []byte) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("store: append to retired wal %s", w.name)
	}
	if err := d.hook("wal.append"); err != nil {
		return 0, err
	}
	if err := d.hook("wal.append.torn"); err != nil {
		// Simulated death mid-write: half the batch reaches the disk,
		// producing a genuine torn tail for recovery to truncate.
		_, _ = w.f.Write(p[:len(p)/2])
		return 0, err
	}
	n, err := w.f.Write(p)
	w.size += int64(n)
	if err != nil {
		return 0, fmt.Errorf("store: wal append %s: %w", w.name, err)
	}
	d.walAppends.Add(1)
	d.walBytes.Add(uint64(n))
	return w.size, nil
}

// sync makes everything up to offset upTo durable. Syncing a retired file
// succeeds trivially: files are only retired after their samples became
// durable in a flushed segment.
func (w *walFile) sync(d *disk, upTo int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.synced >= upTo {
		return nil
	}
	if err := d.hook("wal.sync"); err != nil {
		return err
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal sync %s: %w", w.name, err)
	}
	d.observeFsync(time.Since(start))
	d.walFsyncs.Add(1)
	w.synced = w.size
	return nil
}

// retire closes the fd; the flusher calls it once the file's generation is
// durable in a segment, just before deleting the file.
func (w *walFile) retire() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.closed {
		w.closed = true
		_ = w.f.Close()
	}
}

// walReplay is the result of reading the on-disk log back.
type walReplay struct {
	// samples is every sample record with seq beyond the manifest horizon,
	// in append order.
	samples []Sample
	// maxCampaign is the highest campaign-boundary record seen.
	maxCampaign uint64
	// maxSeq is the highest sample seq seen (stale records included).
	maxSeq uint64
	// truncated counts files truncated or removed at a torn or corrupt
	// tail.
	truncated int
	// liveFiles is the files that survive replay (the corrupt-tail file
	// truncated in place, anything past it removed); they back the
	// recovered memtable and are deleted when it flushes.
	liveFiles []string
}

// replayWAL reads the files (ascending generation order) and returns the
// longest valid prefix of the logical log. Samples with seq ≤ durableSeq
// are already in segments (the manifest horizon) and are skipped. The first
// torn or checksum-failing record ends the replay: the file is truncated at
// that offset and any later files are removed, so a future recovery sees
// exactly the state this one recovered.
func replayWAL(dir string, files []string, durableSeq uint64) (walReplay, error) {
	var rep walReplay
	var sm Sample
	var ids idArena
	for i, name := range files {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return rep, fmt.Errorf("store: read wal: %w", err)
		}
		off, corrupt := 0, false
		for off < len(data) {
			if len(data)-off < 8 {
				corrupt = true
				break
			}
			plen := int(binary.LittleEndian.Uint32(data[off:]))
			crc := binary.LittleEndian.Uint32(data[off+4:])
			if plen == 0 || plen > walMaxRecord || len(data)-off-8 < plen {
				corrupt = true
				break
			}
			payload := data[off+8 : off+8+plen]
			if crc32.Checksum(payload, castagnoli) != crc {
				corrupt = true
				break
			}
			switch payload[0] {
			case walRecBegin:
				c, n := binary.Uvarint(payload[1:])
				if n <= 0 {
					corrupt = true
				} else if c > rep.maxCampaign {
					rep.maxCampaign = c
				}
			case walRecSample:
				if _, err := decodeSampleEnc(payload[1:], &sm, &ids); err != nil {
					corrupt = true
					break
				}
				if sm.Seq > rep.maxSeq {
					rep.maxSeq = sm.Seq
				}
				if sm.Seq > durableSeq {
					rep.samples = append(rep.samples, sm)
				}
			default:
				corrupt = true
			}
			if corrupt {
				break
			}
			off += 8 + plen
		}
		if corrupt {
			rep.truncated++
			if err := truncateFile(path, int64(off)); err != nil {
				return rep, err
			}
			// Records past the corruption horizon are unreachable; remove
			// the later files so replay is idempotent.
			for _, later := range files[i+1:] {
				rep.truncated++
				_ = os.Remove(filepath.Join(dir, later))
			}
			rep.liveFiles = files[:i+1]
			return rep, nil
		}
	}
	rep.liveFiles = files
	return rep, nil
}

func truncateFile(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("store: truncate wal tail: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("store: truncate wal tail: %w", err)
	}
	return f.Sync()
}
