package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// On-disk segment format (v3). A segment file is four length-delimited
// blocks followed by a fixed-size footer carrying each block's length and
// CRC plus enough metadata to open the segment without touching the sample
// block:
//
//	[sample block][ip index block][engine index block][bloom block][footer]
//
//	sample block:  uvarint count | count × sample (appendSampleEnc, in
//	               canonical (IP, campaign, protocol, seq) order)
//	ip index:      u32 n4 | u32 n6 | n4 × entry4 | n6 × entry6, where
//	               entryN = ipBytes(4|16) | u8 flags | u32 lo | u32 hi |
//	               u32 off — (lo,hi) the sample-index span, off the byte
//	               offset of the span's first sample within the sample
//	               block, flags bit0 = span holds an SNMPv3 sample.
//	               Entries are fixed-width and ascending per family, so
//	               lookups binary-search the raw bytes (mmap-friendly).
//	engine index:  u32 count | count × u32 entryOff | entries, each entry
//	               uvarint idLen | id | uvarint nIPs | nIPs × ip, sorted
//	               by raw id bytes; entryOff is relative to the entries
//	               region so lookups binary-search via the offset table.
//	bloom block:   u8 present | (u32 nBlocks | nBlocks × 32B split-block
//	               bloom over 'i'+addr and 'e'+engineID keys)
//	footer (80B):  4 × (u64 len + u32 crc32c) | u64 sampleCount |
//	               u64 minCampaign | u64 maxCampaign | u32 version |
//	               u32 magic
//
// v2 files (three blocks, 44-byte footer, varint ip index, no bloom) are
// still readable: they decode eagerly into the heap exactly as before.
//
// Files are written to a .tmp sibling, fsynced, renamed into place and the
// directory fsynced, so a segment either exists whole or not at all; the
// manifest decides which segments are live. v3 open verifies the index and
// bloom block CRCs (cheap, a few percent of the file) and maps the sample
// block lazily; the full sample-block checksum is the optional verify pass
// (Options.VerifyOnOpen / snmpfpd -verify), kept on in durability-smoke.

const (
	segMagic = 0x53465031 // "SFP1"
	// segVersion 3 added the bloom block, the fixed-width offset-carrying
	// ip index and the footer metadata; 2 added the per-sample protocol
	// tag. v1 files (pre-multi-protocol) are rejected rather than
	// misparsed.
	segVersion      = 3
	segVersion2     = 2
	segFooterSizeV2 = 3*(8+4) + 4 + 4
	segFooterSize   = 4*(8+4) + 3*8 + 4 + 4

	segIPEntry4 = 4 + 1 + 3*4  // v4 ip index entry width
	segIPEntry6 = 16 + 1 + 3*4 // v6 ip index entry width

	// segFlagSNMP marks an ip-index span that contains at least one SNMPv3
	// sample — recovery rebuilds the known-IP set from the index alone.
	segFlagSNMP = 1 << 0
)

// segReader abstracts how a segment file's bytes are held: an mmap'd
// read-only mapping on linux, a heap copy elsewhere (and for tiny files).
type segReader interface {
	bytes() []byte
	close() error
}

// heapReader is the portable segReader: plain bytes on the heap.
type heapReader struct {
	data []byte
}

func (h *heapReader) bytes() []byte { return h.data }
func (h *heapReader) close() error  { h.data = nil; return nil }

func appendAddr(b []byte, ip netip.Addr) []byte {
	if ip.Is4() {
		a := ip.As4()
		b = append(b, 4)
		return append(b, a[:]...)
	}
	a := ip.As16()
	b = append(b, 16)
	return append(b, a[:]...)
}

func decodeAddr(b []byte) (netip.Addr, int, error) {
	if len(b) < 1 {
		return netip.Addr{}, 0, fmt.Errorf("store: segment: truncated address")
	}
	n := int(b[0])
	if (n != 4 && n != 16) || len(b) < 1+n {
		return netip.Addr{}, 0, fmt.Errorf("store: segment: bad address length %d", n)
	}
	if n == 4 {
		return netip.AddrFrom4([4]byte(b[1:5])), 5, nil
	}
	return netip.AddrFrom16([16]byte(b[1:17])), 17, nil
}

// encodeSegment renders the four blocks and footer for g (which must be
// eager — freshly built or merged). withBloom controls whether the filter
// block carries a real filter; the store always passes true, and tests
// write an empty one to measure the filter's effect.
func encodeSegment(g *segment, withBloom bool) []byte {
	type group struct {
		ip    netip.Addr
		flags byte
		sp    span
		off   int
	}

	samples := make([]byte, 0, 64*len(g.samples)+16)
	samples = binary.AppendUvarint(samples, uint64(len(g.samples)))
	groups := make([]group, 0, len(g.byIP))
	var minC, maxC uint64
	for i := 0; i < len(g.samples); {
		sp := g.byIP[g.samples[i].IP]
		gr := group{ip: g.samples[i].IP, sp: sp, off: len(samples)}
		for k := sp.lo; k < sp.hi; k++ {
			sm := &g.samples[k]
			if sm.Protocol == "" {
				gr.flags |= segFlagSNMP
			}
			if minC == 0 || sm.Campaign < minC {
				minC = sm.Campaign
			}
			if sm.Campaign > maxC {
				maxC = sm.Campaign
			}
			samples = appendSampleEnc(samples, sm)
		}
		groups = append(groups, gr)
		i = sp.hi
	}

	// IP index: fixed-width entries, v4 first then v6, both ascending —
	// the canonical sample order already delivers exactly that, and the
	// iteration order is a determinism guarantee for the file bytes.
	n4 := 0
	for _, gr := range groups {
		if gr.ip.Is4() {
			n4++
		}
	}
	ipIdx := make([]byte, 0, 8+segIPEntry4*n4+segIPEntry6*(len(groups)-n4))
	ipIdx = binary.LittleEndian.AppendUint32(ipIdx, uint32(n4))
	ipIdx = binary.LittleEndian.AppendUint32(ipIdx, uint32(len(groups)-n4))
	for _, gr := range groups {
		if gr.ip.Is4() {
			a := gr.ip.As4()
			ipIdx = append(ipIdx, a[:]...)
		} else {
			a := gr.ip.As16()
			ipIdx = append(ipIdx, a[:]...)
		}
		ipIdx = append(ipIdx, gr.flags)
		ipIdx = binary.LittleEndian.AppendUint32(ipIdx, uint32(gr.sp.lo))
		ipIdx = binary.LittleEndian.AppendUint32(ipIdx, uint32(gr.sp.hi))
		ipIdx = binary.LittleEndian.AppendUint32(ipIdx, uint32(gr.off))
	}

	// Engine index: entries sorted by raw id bytes behind an offset table,
	// so lazy readers binary-search without decoding every entry.
	ids := make([]string, 0, len(g.engines))
	for id := range g.engines {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	entries := make([]byte, 0, 32*len(ids))
	offs := make([]byte, 0, 4*len(ids))
	for _, id := range ids {
		offs = binary.LittleEndian.AppendUint32(offs, uint32(len(entries)))
		entries = binary.AppendUvarint(entries, uint64(len(id)))
		entries = append(entries, id...)
		ips := g.engines[id]
		entries = binary.AppendUvarint(entries, uint64(len(ips)))
		for _, ip := range ips {
			entries = appendAddr(entries, ip)
		}
	}
	engIdx := make([]byte, 0, 4+len(offs)+len(entries))
	engIdx = binary.LittleEndian.AppendUint32(engIdx, uint32(len(ids)))
	engIdx = append(engIdx, offs...)
	engIdx = append(engIdx, entries...)

	// Bloom block over every distinct IP and engine ID.
	var bloom []byte
	if withBloom {
		f := newSBBF(len(groups)+len(ids), segBloomBitsPerKey)
		var scratch [64]byte
		for _, gr := range groups {
			if gr.ip.Is4() {
				a := gr.ip.As4()
				f.add(bloomIPKey(scratch[:0], 4, a[:]))
			} else {
				a := gr.ip.As16()
				f.add(bloomIPKey(scratch[:0], 16, a[:]))
			}
		}
		for _, id := range ids {
			key := append(append(scratch[:0], 'e'), id...)
			f.add(key)
		}
		bloom = make([]byte, 0, 5+len(f.blocks))
		bloom = append(bloom, 1)
		bloom = binary.LittleEndian.AppendUint32(bloom, uint32(len(f.blocks)/sbbfBlockSize))
		bloom = append(bloom, f.blocks...)
	} else {
		bloom = []byte{0}
	}

	out := make([]byte, 0, len(samples)+len(ipIdx)+len(engIdx)+len(bloom)+segFooterSize)
	out = append(out, samples...)
	out = append(out, ipIdx...)
	out = append(out, engIdx...)
	out = append(out, bloom...)
	for _, blk := range [][]byte{samples, ipIdx, engIdx, bloom} {
		out = binary.LittleEndian.AppendUint64(out, uint64(len(blk)))
		out = appendUint32(out, crc32.Checksum(blk, castagnoli))
	}
	out = binary.LittleEndian.AppendUint64(out, uint64(len(g.samples)))
	out = binary.LittleEndian.AppendUint64(out, minC)
	out = binary.LittleEndian.AppendUint64(out, maxC)
	out = appendUint32(out, segVersion)
	out = appendUint32(out, segMagic)
	return out
}

// writeSegmentFile writes g to name atomically: tmp file, fsync, rename,
// directory fsync.
func (d *disk) writeSegmentFile(name string, g *segment, withBloom bool) error {
	if err := d.hook("seg.write"); err != nil {
		return err
	}
	data := encodeSegment(g, withBloom)
	tmp := filepath.Join(d.dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: segment write: %w", err)
	}
	if err := d.hook("seg.write.torn"); err != nil {
		_, _ = f.Write(data[:len(data)/2])
		f.Close()
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: segment write: %w", err)
	}
	if err := d.hook("seg.sync"); err != nil {
		f.Close()
		return err
	}
	start := time.Now()
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: segment sync: %w", err)
	}
	d.observeFsync(time.Since(start))
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: segment close: %w", err)
	}
	if err := d.hook("seg.rename"); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, name)); err != nil {
		return fmt.Errorf("store: segment rename: %w", err)
	}
	return d.syncDir()
}

// openSegment opens one segment file for serving: v3 files through the
// segReader (mmap on linux) with only the footer, index and bloom blocks
// verified — the sample block stays untouched until a query needs it — and
// v2 files through the legacy eager decode. verify forces a full
// sample-block checksum and decode pass for either version.
func openSegment(dir, name string, st *segStats, verify bool) (*segment, error) {
	rd, err := openSegReader(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	data := rd.bytes()
	bad := func(format string, args ...any) (*segment, error) {
		_ = rd.close()
		return nil, fmt.Errorf("store: segment %s corrupt: %s", name, fmt.Sprintf(format, args...))
	}
	if len(data) < 8 {
		return bad("short file (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint32(data[len(data)-4:]) != segMagic {
		return bad("bad magic")
	}
	switch v := binary.LittleEndian.Uint32(data[len(data)-8:]); v {
	case segVersion2:
		g, err := decodeSegmentV2(name, data)
		// Everything is copied out of the file bytes; release them now.
		_ = rd.close()
		if err != nil {
			return nil, err
		}
		return g, nil
	case segVersion:
		g, err := openSegmentV3(name, data, st, verify)
		if err != nil {
			_ = rd.close()
			return nil, err
		}
		g.lz.rd = rd
		// The mapping must outlive every live reference to the segment;
		// views pin the segment, the segment pins the lazySeg, and the
		// cleanup unmaps only when both are unreachable.
		runtime.SetFinalizer(g.lz, func(lz *lazySeg) { _ = lz.rd.close() })
		return g, nil
	default:
		return bad("unsupported version %d", v)
	}
}

// openSegmentV3 parses a v3 file into a lazy segment over data. The caller
// owns data's lifetime (the segReader).
func openSegmentV3(name string, data []byte, st *segStats, verify bool) (*segment, error) {
	bad := func(format string, args ...any) (*segment, error) {
		return nil, fmt.Errorf("store: segment %s corrupt: %s", name, fmt.Sprintf(format, args...))
	}
	if len(data) < segFooterSize {
		return bad("short file (%d bytes)", len(data))
	}
	foot := data[len(data)-segFooterSize:]
	var blocks [4][]byte
	off := 0
	for i := 0; i < 4; i++ {
		blen := binary.LittleEndian.Uint64(foot[i*12:])
		crc := binary.LittleEndian.Uint32(foot[i*12+8:])
		if uint64(len(data)-segFooterSize-off) < blen {
			return bad("block %d overruns file", i)
		}
		blk := data[off : off+int(blen)]
		// The sample block checksum — the bulk of the file — is deferred
		// to the verify pass; the index and bloom blocks are always
		// verified (they are load-bearing and a few percent of the size).
		if i > 0 || verify {
			if crc32.Checksum(blk, castagnoli) != crc {
				return bad("block %d checksum mismatch", i)
			}
		}
		blocks[i] = blk
		off += int(blen)
	}
	if off != len(data)-segFooterSize {
		return bad("trailing garbage before footer")
	}
	count := binary.LittleEndian.Uint64(foot[48:])
	minC := binary.LittleEndian.Uint64(foot[56:])
	maxC := binary.LittleEndian.Uint64(foot[64:])

	sblk := blocks[0]
	hdrCount, n := binary.Uvarint(sblk)
	if n <= 0 || hdrCount != count {
		return bad("sample count header %d vs footer %d", hdrCount, count)
	}

	// IP index: structural validation only — O(index), never O(samples).
	b := blocks[1]
	if len(b) < 8 {
		return bad("ip index header")
	}
	n4 := int(binary.LittleEndian.Uint32(b))
	n6 := int(binary.LittleEndian.Uint32(b[4:]))
	if n4 < 0 || n6 < 0 || len(b) != 8+n4*segIPEntry4+n6*segIPEntry6 {
		return bad("ip index size %d for %d+%d entries", len(b), n4, n6)
	}
	ip4 := b[8 : 8+n4*segIPEntry4]
	ip6 := b[8+n4*segIPEntry4:]
	checkEntry := func(e []byte, ipLen int, prev []byte) error {
		if prev != nil && bytes.Compare(prev[:ipLen], e[:ipLen]) >= 0 {
			return fmt.Errorf("ip index not ascending")
		}
		lo := binary.LittleEndian.Uint32(e[ipLen+1:])
		hi := binary.LittleEndian.Uint32(e[ipLen+5:])
		so := binary.LittleEndian.Uint32(e[ipLen+9:])
		if lo >= hi || uint64(hi) > count || int(so) >= len(sblk) {
			return fmt.Errorf("ip index span [%d,%d)@%d out of range", lo, hi, so)
		}
		return nil
	}
	var prev []byte
	for i := 0; i < n4; i++ {
		e := ip4[i*segIPEntry4 : (i+1)*segIPEntry4]
		if err := checkEntry(e, 4, prev); err != nil {
			return bad("entry %d: %v", i, err)
		}
		prev = e
	}
	prev = nil
	for i := 0; i < n6; i++ {
		e := ip6[i*segIPEntry6 : (i+1)*segIPEntry6]
		if err := checkEntry(e, 16, prev); err != nil {
			return bad("v6 entry %d: %v", i, err)
		}
		prev = e
	}

	// Engine index: offset table sanity.
	b = blocks[2]
	if len(b) < 4 {
		return bad("engine index header")
	}
	nEng := int(binary.LittleEndian.Uint32(b))
	if nEng < 0 || len(b) < 4+4*nEng {
		return bad("engine index offset table")
	}
	engOffs := b[4 : 4+4*nEng]
	engBlk := b[4+4*nEng:]
	last := -1
	for i := 0; i < nEng; i++ {
		o := int(binary.LittleEndian.Uint32(engOffs[i*4:]))
		if o <= last || o >= len(engBlk) {
			return bad("engine index offset %d at %d", o, i)
		}
		last = o
	}

	// Bloom block.
	b = blocks[3]
	if len(b) < 1 {
		return bad("bloom header")
	}
	var filter sbbf
	if b[0] == 1 {
		if len(b) < 5 {
			return bad("bloom size header")
		}
		nBlocks := int(binary.LittleEndian.Uint32(b[1:]))
		if nBlocks < 1 || len(b) != 5+nBlocks*sbbfBlockSize {
			return bad("bloom block size %d for %d blocks", len(b), nBlocks)
		}
		filter = sbbf{blocks: b[5:]}
	}

	lz := &lazySeg{
		sblk:    sblk,
		count:   int(count),
		ip4:     ip4,
		ip6:     ip6,
		n4:      n4,
		n6:      n6,
		engOffs: engOffs,
		engBlk:  engBlk,
		nEng:    nEng,
		filter:  filter,
		minC:    minC,
		maxC:    maxC,
		st:      st,
	}
	if st != nil {
		lz.id = st.nextSegID.Add(1)
	}
	g := &segment{file: name, lz: lz}
	if verify {
		// Beyond the checksum, prove every sample decodes: the contract
		// durability-smoke reopens under.
		if err := g.scan(func(*Sample) {}); err != nil {
			return bad("%v", err)
		}
	}
	return g, nil
}

// decodeSegmentV2 is the legacy eager reader: verifies every CRC and
// rebuilds the in-memory segment from the index blocks, copying everything
// out of data.
func decodeSegmentV2(name string, data []byte) (*segment, error) {
	bad := func(format string, args ...any) (*segment, error) {
		return nil, fmt.Errorf("store: segment %s corrupt: %s", name, fmt.Sprintf(format, args...))
	}
	if len(data) < segFooterSizeV2 {
		return bad("short file (%d bytes)", len(data))
	}
	foot := data[len(data)-segFooterSizeV2:]
	var blocks [3][]byte
	off := 0
	for i := 0; i < 3; i++ {
		blen := binary.LittleEndian.Uint64(foot[i*12:])
		crc := binary.LittleEndian.Uint32(foot[i*12+8:])
		if uint64(len(data)-segFooterSizeV2-off) < blen {
			return bad("block %d overruns file", i)
		}
		blk := data[off : off+int(blen)]
		if crc32.Checksum(blk, castagnoli) != crc {
			return bad("block %d checksum mismatch", i)
		}
		blocks[i] = blk
		off += int(blen)
	}
	if off != len(data)-segFooterSizeV2 {
		return bad("trailing garbage before footer")
	}

	// Sample block.
	b := blocks[0]
	count, n := binary.Uvarint(b)
	if n <= 0 || count > uint64(len(b)) {
		return bad("sample count")
	}
	b = b[n:]
	g := &segment{
		samples: make([]Sample, 0, count),
		byIP:    make(map[netip.Addr]span),
		engines: make(map[string][]netip.Addr),
	}
	for i := uint64(0); i < count; i++ {
		s, n, err := decodeSampleEnc(b)
		if err != nil {
			return bad("sample %d: %v", i, err)
		}
		g.samples = append(g.samples, s)
		b = b[n:]
	}

	// Per-IP index block (v2: varint spans, no offsets).
	b = blocks[1]
	count, n = binary.Uvarint(b)
	if n <= 0 {
		return bad("ip index count")
	}
	b = b[n:]
	for i := uint64(0); i < count; i++ {
		ip, n, err := decodeAddr(b)
		if err != nil {
			return bad("ip index %d: %v", i, err)
		}
		b = b[n:]
		lo, n := binary.Uvarint(b)
		if n <= 0 {
			return bad("ip index %d lo", i)
		}
		b = b[n:]
		hi, n := binary.Uvarint(b)
		if n <= 0 {
			return bad("ip index %d hi", i)
		}
		b = b[n:]
		if lo > hi || hi > uint64(len(g.samples)) {
			return bad("ip index %d span [%d,%d) out of range", i, lo, hi)
		}
		g.byIP[ip] = span{int(lo), int(hi)}
	}

	// Per-engine-ID index block.
	b = blocks[2]
	count, n = binary.Uvarint(b)
	if n <= 0 {
		return bad("engine index count")
	}
	b = b[n:]
	for i := uint64(0); i < count; i++ {
		idLen, n := binary.Uvarint(b)
		if n <= 0 || idLen > walMaxRecord || uint64(len(b)-n) < idLen {
			return bad("engine index %d id", i)
		}
		id := string(b[n : n+int(idLen)])
		b = b[n+int(idLen):]
		nIPs, n := binary.Uvarint(b)
		if n <= 0 {
			return bad("engine index %d ip count", i)
		}
		b = b[n:]
		ips := make([]netip.Addr, 0, nIPs)
		for j := uint64(0); j < nIPs; j++ {
			ip, n, err := decodeAddr(b)
			if err != nil {
				return bad("engine index %d ip %d: %v", i, j, err)
			}
			ips = append(ips, ip)
			b = b[n:]
		}
		g.engines[id] = ips
	}
	g.file = name
	return g, nil
}
