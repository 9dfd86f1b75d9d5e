package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"snmpv3fp/internal/core"
)

// Sample is one stored observation: what a single campaign saw at one IP.
// Samples are immutable once ingested; a later sample for the same
// (IP, campaign, protocol) supersedes the earlier one (re-ingesting a
// corrected campaign file), with compaction discarding the loser.
type Sample struct {
	IP       netip.Addr
	Campaign uint64
	// Seq is the store-global ingest sequence number; among samples with
	// equal (IP, Campaign, Protocol) the highest Seq wins.
	Seq uint64
	// Protocol names the probe module that produced the sample; "" is
	// SNMPv3 discovery (the legacy single-protocol schema). Non-SNMP
	// samples reuse EngineID to carry the module's alias key bytes and
	// stay out of the SNMP-specific derived state (engine index, alias
	// pipeline, /v1/ip history).
	Protocol     string
	EngineID     []byte
	Boots        int64
	EngineTime   int64
	ReceivedAt   time.Time
	Packets      int
	Inconsistent bool
}

// LastReboot derives the restart instant exactly as core.Observation does.
func (s *Sample) LastReboot() time.Time {
	return s.ReceivedAt.Add(-time.Duration(s.EngineTime) * time.Second)
}

// Observation converts the sample back to the pipeline's native type.
func (s *Sample) Observation() *core.Observation {
	o := s.observation()
	return &o
}

func (s *Sample) observation() core.Observation {
	return core.Observation{
		IP:           s.IP,
		EngineID:     s.EngineID,
		EngineBoots:  s.Boots,
		EngineTime:   s.EngineTime,
		ReceivedAt:   s.ReceivedAt,
		Packets:      s.Packets,
		Inconsistent: s.Inconsistent,
	}
}

func sampleFrom(o *core.Observation, campaign, seq uint64) Sample {
	return Sample{
		IP:           o.IP,
		Campaign:     campaign,
		Seq:          seq,
		EngineID:     o.EngineID,
		Boots:        o.EngineBoots,
		EngineTime:   o.EngineTime,
		ReceivedAt:   o.ReceivedAt,
		Packets:      o.Packets,
		Inconsistent: o.Inconsistent,
	}
}

// sampleCmp is the canonical segment order: (IP, Campaign, Protocol, Seq).
// Protocol "" (SNMPv3) sorts first within a campaign, so the legacy
// single-protocol layout is unchanged when no multi-protocol evidence
// exists. Seq is store-global, so no two samples compare equal.
func sampleCmp(a, b Sample) int {
	if c := a.IP.Compare(b.IP); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Campaign, b.Campaign); c != 0 {
		return c
	}
	if c := strings.Compare(a.Protocol, b.Protocol); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// span is a half-open index range into a segment's sample slice.
type span struct{ lo, hi int }

// segStats is the read-tier accounting every lazily opened segment of one
// store (or replica) shares.
type segStats struct {
	// queryBytes counts segment bytes actually touched by point lookups —
	// index entries probed plus sample bytes decoded. Bloom probes cost
	// zero, which is exactly the number the cold-negative-lookup
	// acceptance criterion is measured on.
	queryBytes atomic.Uint64
}

// segment is one immutable sorted run of samples with its per-IP and
// per-engine-ID indexes. Segments are never mutated after construction, so
// readers touch them without synchronization.
//
// A segment is either eager (samples + maps in the heap: freshly built
// memtable freezes, merges in flight) or lazy (lz != nil: a segment file
// served straight from its mapped bytes, decoding per-IP runs on demand). All reads go through the accessor methods below, which hide the
// difference.
type segment struct {
	samples []Sample
	byIP    map[netip.Addr]span
	// engines maps an engine ID (raw bytes as string) to the sorted,
	// deduplicated IPs that reported it in this segment.
	engines map[string][]netip.Addr
	// file is the on-disk file backing this segment (base name within the
	// store directory); empty for in-memory segments and the transient
	// segments snapshots freeze. Set once before the segment is installed,
	// never read by view code.
	file string

	// lz, when non-nil, is the lazy mmap-backed representation; samples/
	// byIP/engines above are then unused (nil).
	lz *lazySeg
}

// lazySeg serves a v3 segment file from its raw (typically mmap'd) bytes.
type lazySeg struct {
	rd      segReader
	sblk    []byte // sample block, count header included
	count   int
	ip4     []byte // fixed-width v4 index entries, ascending
	ip6     []byte
	n4, n6  int
	engOffs []byte // nEng × u32 offsets into engBlk
	engBlk  []byte
	nEng    int
	filter  sbbf // zero value when the file carries no bloom
	// minC/maxC bound the campaigns present, so recovery and per-campaign
	// scans skip whole segments from the footer alone.
	minC, maxC uint64
	st         *segStats
	// name is the segment file's base name, for decode and corruption
	// errors.
	name string
}

func (lz *lazySeg) read(n int) {
	if lz.st != nil {
		lz.st.queryBytes.Add(uint64(n))
	}
}

// ipEntry binary-searches the fixed-width index for addr, returning the
// entry bytes (ip | flags | lo | hi | off) or nil.
func (lz *lazySeg) ipEntry(addr netip.Addr) []byte {
	var key []byte
	var tbl []byte
	var width, ipLen, n int
	if addr.Is4() {
		a := addr.As4()
		key, tbl, width, ipLen, n = a[:], lz.ip4, segIPEntry4, 4, lz.n4
	} else {
		a := addr.As16()
		key, tbl, width, ipLen, n = a[:], lz.ip6, segIPEntry6, 16, lz.n6
	}
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		e := tbl[mid*width : mid*width+width]
		lz.read(width)
		switch bytes.Compare(e[:ipLen], key) {
		case 0:
			return e
		case -1:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return nil
}

// decodeSpan decodes the n samples starting at byte offset off within the
// sample block.
func (lz *lazySeg) decodeSpan(off, n int) ([]Sample, error) {
	b := lz.sblk[off:]
	out := make([]Sample, n)
	var ids idArena
	read := 0
	for i := range out {
		sz, err := decodeSampleEnc(b, &out[i], &ids)
		if err != nil {
			return nil, fmt.Errorf("store: segment %s sample decode at %d: %w", lz.name, off+read, err)
		}
		b = b[sz:]
		read += sz
	}
	lz.read(read)
	return out, nil
}

// ipSamples returns the segment's samples for addr (all protocols), nil if
// absent. The bloom filter screens first (zero bytes touched on a true
// negative), then the index probe, then a decode straight from the mapping.
func (lz *lazySeg) ipSamples(addr netip.Addr) []Sample {
	var scratch [17]byte
	if addr.Is4() {
		a := addr.As4()
		if !lz.filter.mayContain(bloomIPKey(scratch[:0], 4, a[:])) {
			return nil
		}
	} else {
		a := addr.As16()
		if !lz.filter.mayContain(bloomIPKey(scratch[:0], 16, a[:])) {
			return nil
		}
	}
	ipLen := 4
	if !addr.Is4() {
		ipLen = 16
	}
	e := lz.ipEntry(addr)
	if e == nil {
		return nil
	}
	spanLo := int(binary.LittleEndian.Uint32(e[ipLen+1:]))
	spanHi := int(binary.LittleEndian.Uint32(e[ipLen+5:]))
	off := int(binary.LittleEndian.Uint32(e[ipLen+9:]))
	out, err := lz.decodeSpan(off, spanHi-spanLo)
	if err != nil {
		// The index and bloom blocks were verified at open; a decode
		// failure here means the mapped file was corrupted underneath a
		// live store. Fail stop, like the SIGBUS an externally truncated
		// mapping would raise.
		panic(err)
	}
	return out
}

// engineIPs returns every IP recorded for the engine ID, nil if absent.
func (lz *lazySeg) engineIPs(id []byte) []netip.Addr {
	if len(id) == 0 || lz.nEng == 0 {
		return nil
	}
	var scratch [64]byte
	if !lz.filter.mayContain(bloomEngineKey(scratch[:0], id)) {
		return nil
	}
	lo, hi := 0, lz.nEng
	for lo < hi {
		mid := (lo + hi) / 2
		off := int(binary.LittleEndian.Uint32(lz.engOffs[mid*4:]))
		b := lz.engBlk[off:]
		idLen, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < idLen {
			panic(fmt.Errorf("store: segment %s engine index corrupt at %d", lz.name, off))
		}
		entryID := b[n : n+int(idLen)]
		lz.read(4 + n + int(idLen))
		switch bytes.Compare(entryID, id) {
		case 0:
			b = b[n+int(idLen):]
			nIPs, n := binary.Uvarint(b)
			if n <= 0 {
				panic(fmt.Errorf("store: segment %s engine entry corrupt at %d", lz.name, off))
			}
			b = b[n:]
			ips := make([]netip.Addr, 0, nIPs)
			read := n
			for j := uint64(0); j < nIPs; j++ {
				ip, sz, err := decodeAddr(b)
				if err != nil {
					panic(fmt.Errorf("store: segment %s engine entry corrupt at %d: %w", lz.name, off, err))
				}
				ips = append(ips, ip)
				b = b[sz:]
				read += sz
			}
			lz.read(read)
			return ips
		case -1:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return nil
}

// scan streams every sample through fn in canonical order. Used by full
// scans (fusion evidence, recovery replay, compaction merges) — nothing is
// retained, so a lazy segment never materializes a heap copy of itself. Each
// sample is decoded into the same Sample, its engine ID into one arena for
// the whole scan.
func (lz *lazySeg) scan(fn func(*Sample)) error {
	b := lz.sblk
	_, n := binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("store: segment %s sample count corrupt", lz.name)
	}
	b = b[n:]
	var sm Sample
	var ids idArena
	for i := 0; i < lz.count; i++ {
		sz, err := decodeSampleEnc(b, &sm, &ids)
		if err != nil {
			return fmt.Errorf("store: segment %s sample %d: %w", lz.name, i, err)
		}
		fn(&sm)
		b = b[sz:]
	}
	return nil
}

// forEachIPEntry walks the index entries (v4 then v6) without touching the
// sample block; recovery rebuilds the known-IP set from this alone.
func (lz *lazySeg) forEachIPEntry(fn func(addr netip.Addr, flags byte)) {
	for i := 0; i < lz.n4; i++ {
		e := lz.ip4[i*segIPEntry4:]
		fn(netip.AddrFrom4([4]byte(e[:4])), e[4])
	}
	for i := 0; i < lz.n6; i++ {
		e := lz.ip6[i*segIPEntry6:]
		fn(netip.AddrFrom16([16]byte(e[:16])), e[16])
	}
}

// forEachEngineID walks the engine index keys; recovery rebuilds the
// distinct-device set from this alone.
func (lz *lazySeg) forEachEngineID(fn func(id []byte)) {
	for i := 0; i < lz.nEng; i++ {
		off := int(binary.LittleEndian.Uint32(lz.engOffs[i*4:]))
		b := lz.engBlk[off:]
		idLen, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < idLen {
			panic(fmt.Errorf("store: segment %s engine index corrupt at %d", lz.name, off))
		}
		fn(b[n : n+int(idLen)])
	}
}

// ---- accessor methods: the one query surface over both representations ----

// length returns the sample count.
func (g *segment) length() int {
	if g.lz != nil {
		return g.lz.count
	}
	return len(g.samples)
}

// ipSamples returns the segment's samples for addr (all protocols) in
// canonical order, nil if absent. Callers must not mutate the result: it
// may be a shared sub-slice (eager).
func (g *segment) ipSamples(addr netip.Addr) []Sample {
	if g.lz != nil {
		return g.lz.ipSamples(addr)
	}
	sp, ok := g.byIP[addr]
	if !ok {
		return nil
	}
	return g.samples[sp.lo:sp.hi]
}

// engineIPs returns every IP recorded for the engine ID. Shared; do not
// mutate.
func (g *segment) engineIPs(id []byte) []netip.Addr {
	if g.lz != nil {
		return g.lz.engineIPs(id)
	}
	return g.engines[string(id)]
}

// scan streams every sample through fn in canonical order. The *Sample is
// only valid for the duration of the call; a copy of it stays valid, engine
// ID included.
func (g *segment) scan(fn func(*Sample)) error {
	if g.lz != nil {
		return g.lz.scan(fn)
	}
	for i := range g.samples {
		fn(&g.samples[i])
	}
	return nil
}

// mayContainCampaign reports whether the segment can hold samples of
// campaign c; lazy segments answer from the footer's campaign range, eager
// ones conservatively say yes.
func (g *segment) mayContainCampaign(c uint64) bool {
	if g.lz != nil {
		return c >= g.lz.minC && c <= g.lz.maxC
	}
	return true
}

// mustScan is scan for view paths that have no error channel: a decode
// failure on an open-verified segment is fail-stop.
func (g *segment) mustScan(fn func(*Sample)) {
	if err := g.scan(fn); err != nil {
		panic(err)
	}
}

// buildSegment sorts the samples into canonical order and indexes them. It
// takes ownership of the slice.
func buildSegment(samples []Sample) *segment {
	slices.SortFunc(samples, sampleCmp)
	g := &segment{
		samples: samples,
		byIP:    make(map[netip.Addr]span),
		engines: make(map[string][]netip.Addr),
	}
	for i := 0; i < len(samples); {
		j := i
		for j < len(samples) && samples[j].IP == samples[i].IP {
			j++
		}
		g.byIP[samples[i].IP] = span{i, j}
		// Groups arrive in ascending IP order, so each engine's IP list is
		// appended in sorted order and dedupes against its own tail: no
		// per-group scratch set needed.
		for k := i; k < j; k++ {
			// Only SNMPv3 samples enter the engine index: non-SNMP
			// protocols reuse EngineID for their alias keys, which must
			// not answer engine-ID device lookups.
			if samples[k].Protocol != "" {
				continue
			}
			id := samples[k].EngineID
			if len(id) == 0 {
				continue
			}
			ips := g.engines[string(id)]
			if len(ips) > 0 && ips[len(ips)-1] == samples[i].IP {
				continue
			}
			g.engines[string(id)] = append(ips, samples[i].IP)
		}
		i = j
	}
	return g
}

// mergeSegments folds several segments (oldest first) into one, dropping
// superseded samples: for each (IP, campaign, protocol) only the highest-Seq
// sample survives. Returns the merged segment and how many samples were
// dropped. Lazy inputs are streamed through their decoder; an undecodable
// sample fails the merge rather than silently dropping data.
func mergeSegments(segs []*segment) (*segment, int, error) {
	total := 0
	for _, g := range segs {
		total += g.length()
	}
	// One buffer, gathered, deduplicated in place and handed to the merged
	// segment: a whole-store merge is the largest transient the store has.
	all := make([]Sample, 0, total)
	for _, g := range segs {
		if err := g.scan(func(sm *Sample) { all = append(all, *sm) }); err != nil {
			return nil, 0, err
		}
	}
	slices.SortFunc(all, sampleCmp)
	kept := all[:0]
	for i := range all {
		if len(kept) > 0 {
			last := &kept[len(kept)-1]
			if last.IP == all[i].IP && last.Campaign == all[i].Campaign && last.Protocol == all[i].Protocol {
				// Same key: the later (higher-Seq) sample supersedes.
				kept[len(kept)-1] = all[i]
				continue
			}
		}
		kept = append(kept, all[i])
	}
	clear(all[len(kept):]) // the dropped tail must not pin engine IDs
	return buildSegment(kept), total - len(kept), nil
}

// memtable is the mutable ingest buffer: an append-only sample log frozen
// into an indexed segment on flush. No query ever reads the memtable
// directly (snapshots freeze it first), so it keeps no indexes of its own —
// buildSegment derives them at freeze time.
type memtable struct {
	samples []Sample
}

func newMemtable() *memtable {
	return &memtable{}
}

func (m *memtable) add(sm Sample) {
	m.samples = append(m.samples, sm)
}

// reserve grows the sample log to accept n more samples without
// reallocating. Growth is geometric (at least double), so the batches of one
// memtable generation copy it O(log n) times, not once per batch.
func (m *memtable) reserve(n int) {
	if free := cap(m.samples) - len(m.samples); free < n {
		m.samples = slices.Grow(m.samples, max(n, cap(m.samples)))
	}
}

func (m *memtable) len() int { return len(m.samples) }

// freeze copies the memtable into an immutable segment; the memtable keeps
// accepting writes afterwards (snapshots freeze without resetting).
func (m *memtable) freeze() *segment {
	cp := make([]Sample, len(m.samples))
	copy(cp, m.samples)
	return buildSegment(cp)
}
