// Package store is the fingerprint observation store behind cmd/snmpfpd: a
// log-structured, append-only home for SNMPv3 scan campaigns that turns the
// batch pipeline (scan → NDJSON → re-read everything) into an incrementally
// updated, query-serving system.
//
// Writes land in an in-memory memtable that is frozen into immutable sorted
// segments at campaign boundaries (and when it outgrows its threshold); a
// background compactor merges segments and discards superseded samples.
// Each segment carries a per-IP and a per-engine-ID index. Readers obtain a
// View — an immutable snapshot of segments, alias sets and tallies — by
// loading a pointer the writer publishes, so queries never block ingest or
// wait for it, and a campaign becomes visible when Ingest returns: samples,
// alias sets and stats in one step, never half-applied (DESIGN.md §9).
//
// With Options.Dir set the store is durable and crash-safe: every Add is
// appended to a checksummed write-ahead log and fsynced before it is
// acknowledged, flushes write segments to disk through an atomic
// tmp-and-rename, and an atomically rewritten manifest records the live
// segment set. Open replays the log, loads the manifest and rebuilds the
// incremental alias state, so a kill -9 mid-ingest loses nothing that was
// acknowledged (see DESIGN.md §12 for the formats and the recovery
// sequence).
//
// Alias sets (Section 5) and vendor tallies (Section 6) over the two most
// recent campaigns are maintained incrementally on ingest; their results
// are byte-identical to the batch filter.Run + alias.Resolve pipeline.
package store

import (
	"cmp"
	"context"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"snmpv3fp/internal/alias"
	"snmpv3fp/internal/core"
	"snmpv3fp/internal/obs"
)

// Options tunes a store.
type Options struct {
	// Dir, when set, makes the store durable: a write-ahead log, on-disk
	// segments and a manifest live there, and Open recovers whatever a
	// previous process acknowledged. Empty means a purely in-memory store.
	Dir string
	// FlushThreshold is how many memtable samples trigger a flush to an
	// immutable segment (default 4096). Campaign boundaries always flush.
	FlushThreshold int
	// MaxSegments is the segment count at which the background compactor
	// merges (default 6).
	MaxSegments int
	// Variant is the alias-resolution rule (default alias.Default, the
	// paper's "Divide by 20 both").
	Variant alias.Variant
	// DisableCompaction turns the background compactor off; Compact can
	// still be called explicitly. Used by tests that assert segment
	// layouts.
	DisableCompaction bool
	// Obs, when non-nil, receives the store's metrics: ingest/flush/
	// compaction counters, memtable and segment gauges (read-time
	// callbacks over the live state, so they reconcile exactly with
	// Stats), WAL append/byte/fsync counters and an fsync-latency
	// histogram for durable stores, a compaction-duration histogram, and
	// store.ingest / store.flush / store.compact spans (see DESIGN.md §10).
	Obs *obs.Registry
	// VerifyOnOpen makes recovery checksum and decode every sample of
	// every segment (the pre-v3 behavior). Off by default: v3 segments
	// open lazily, verifying only their footer, index and bloom blocks.
	VerifyOnOpen bool

	// hooks intercepts durable-path steps; crash-recovery tests use it to
	// kill the store at arbitrary points.
	hooks *diskHooks
}

func (o *Options) fill() {
	if o.FlushThreshold <= 0 {
		o.FlushThreshold = 4096
	}
	if o.MaxSegments < 2 {
		o.MaxSegments = 6
	}
	zero := alias.Variant{}
	if o.Variant == zero {
		o.Variant = alias.Default
	}
}

// Stats is a point-in-time summary of the store.
type Stats struct {
	// Version increments on every mutation; snapshots taken later never
	// carry a smaller version. Publishing a view is not a mutation.
	Version uint64 `json:"version"`
	// Campaigns is how many campaigns have been begun.
	Campaigns uint64 `json:"campaigns"`
	// Ingested counts samples ever accepted.
	Ingested uint64 `json:"ingested"`
	// MemSamples is the current memtable population, frozen memtables
	// awaiting flush included.
	MemSamples int `json:"mem_samples"`
	// Segments and SegmentSamples describe the immutable layer.
	Segments       int `json:"segments"`
	SegmentSamples int `json:"segment_samples"`
	// Flushes and Compactions count memtable freezes and segment merges.
	Flushes     uint64 `json:"flushes"`
	Compactions uint64 `json:"compactions"`
	// Superseded counts samples discarded by compaction because a later
	// sample for the same (IP, campaign) replaced them.
	Superseded uint64 `json:"superseded"`
	// TrackedIPs is how many distinct IPs have ever been observed;
	// CurrentResponsive how many answered the current campaign so far.
	TrackedIPs        int `json:"tracked_ips"`
	CurrentResponsive int `json:"current_responsive"`
	// Devices is how many distinct engine IDs have ever been observed.
	Devices int `json:"devices"`
	// AliasSets and Vendors describe the live incremental resolution over
	// the latest campaign pair.
	AliasSets int `json:"alias_sets"`
	Vendors   int `json:"vendors"`
}

// frozenMem is an immutable memtable generation awaiting flush: its samples
// are already acknowledged (and, durably, already in the WAL files it
// owns), it just hasn't been built into an installed segment yet. Snapshots
// read it; exactly one flusher retires it.
type frozenMem struct {
	samples  []Sample
	walNames []string   // log files to delete once the segment is durable
	walRefs  []*walFile // open handles to retire before deletion
	// seg caches the built segment; written only under the store mutex.
	seg *segment
}

// Store is the fingerprint observation store. All methods are safe for
// concurrent use.
type Store struct {
	opt Options

	mu       sync.Mutex
	mem      *memtable
	frozen   []*frozenMem // generations awaiting flush, oldest first
	segs     []*segment   // immutable elements; slice rebuilt on change
	seq      uint64
	campaign uint64
	// prev and cur map IPs to their observation in the previous and
	// current campaign — the pair the alias index resolves over.
	prev, cur map[netip.Addr]*core.Observation
	aidx      *aliasIndex
	known     map[netip.Addr]struct{}
	engines   map[string]struct{}

	version     uint64
	ingested    uint64
	flushes     uint64
	compactions uint64
	superseded  uint64

	// Durable-mode state. walBuf accumulates encoded records under mu and
	// is written to wal in one append per commit; walNames is the current
	// generation's log files (recovered files plus the live one);
	// durableSeq is the manifest horizon — the highest seq durable in an
	// installed segment. diskErr latches the first durable-path failure:
	// after it, mutations fail fast (reads keep working).
	d          *disk
	wal        *walFile
	walNames   []string
	walBuf     []byte
	durableSeq uint64
	diskErr    error
	closed     bool

	// diskMu serializes the flusher and the compactor — the only two
	// mutators of the installed segment set and the manifest. Never
	// acquired while holding mu.
	diskMu sync.Mutex

	// segStat is the query-bytes accounting shared by the store's lazy
	// segments. Nil for in-memory stores (whose segments are always eager).
	segStat *segStats
	// repl publishes committed (manifest, stats, segments) states to
	// replication subscribers; nil for in-memory stores.
	repl *replPub

	// pub is what Snapshot serves. ingesting counts Ingest calls in flight:
	// while it is non-zero mutations leave the published view alone, and
	// each Ingest publishes as it returns.
	pub       viewPub
	ingesting int

	compactCh chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// tracer times ingest/flush/compact spans on the wall clock; it is a
	// no-op when Options.Obs is unset.
	tracer *obs.Tracer
}

// ErrNoCampaign is returned by Add before any BeginCampaign call.
var ErrNoCampaign = errors.New("store: no campaign begun")

// ErrClosed is returned by mutations after Close.
var ErrClosed = errors.New("store: closed")

// Open creates a store and starts its background compactor. With a Dir it
// first recovers the on-disk state: manifest, segments, then the
// write-ahead log replayed into the memtable, with leftovers of an
// unfinished flush or compaction swept away.
func Open(opt Options) (*Store, error) {
	opt.fill()
	s := &Store{
		opt:       opt,
		mem:       newMemtable(),
		prev:      map[netip.Addr]*core.Observation{},
		cur:       map[netip.Addr]*core.Observation{},
		aidx:      newAliasIndex(opt.Variant),
		known:     map[netip.Addr]struct{}{},
		engines:   map[string]struct{}{},
		compactCh: make(chan struct{}, 1),
		done:      make(chan struct{}),
		tracer:    obs.NewTracer(opt.Obs, nil),
	}
	if opt.Dir != "" {
		s.d = &disk{dir: opt.Dir, hooks: opt.hooks}
		s.segStat = &segStats{}
		s.repl = newReplPub()
		if err := s.recover(); err != nil {
			return nil, err
		}
		// Publish the recovered state so replicas connecting before the
		// first flush still get a full baseline to sync from.
		s.publishRepl(s.manifestLocked())
	}
	s.registerMetrics(opt.Obs)
	if !opt.DisableCompaction {
		s.wg.Add(1)
		go s.compactor()
	}
	return s, nil
}

// recover rebuilds the store from its directory. Called from Open before
// the store is shared, so no locking.
func (s *Store) recover() error {
	start := time.Now()
	if err := os.MkdirAll(s.d.dir, 0o755); err != nil {
		return err
	}
	man, _, err := readManifest(s.d.dir)
	if err != nil {
		return err
	}
	wals, orphans, maxFile, err := scanDir(s.d.dir, &man)
	if err != nil {
		return err
	}
	if man.NextFile > maxFile {
		maxFile = man.NextFile
	}
	s.d.nextFile.Store(maxFile)
	// Orphans are leftovers of an unfinished flush or compaction: tmp
	// files, and segments the manifest never committed (their samples are
	// still in the WAL, so deleting them loses nothing).
	for _, name := range orphans {
		if err := os.Remove(filepath.Join(s.d.dir, name)); err != nil {
			return err
		}
	}
	for _, name := range man.Segments {
		g, err := openSegment(s.d.dir, name, s.segStat, s.opt.VerifyOnOpen)
		if err != nil {
			return err
		}
		s.segs = append(s.segs, g)
	}
	rep, err := replayWAL(s.d.dir, wals, man.Seq)
	if err != nil {
		return err
	}
	s.mem.samples = rep.samples
	s.walNames = append(s.walNames, rep.liveFiles...)
	s.durableSeq = man.Seq
	s.seq = man.Seq
	if rep.maxSeq > s.seq {
		s.seq = rep.maxSeq
	}
	s.campaign = man.Campaigns
	if rep.maxCampaign > s.campaign {
		s.campaign = rep.maxCampaign
	}
	der, err := rebuildDerived(s.segs, s.mem.samples, s.campaign, s.opt.Variant)
	if err != nil {
		return err
	}
	s.campaign = der.campaign
	s.ingested = der.ingested
	s.known, s.engines = der.known, der.engines
	s.prev, s.cur = der.prev, der.cur
	s.aidx = der.aidx
	s.d.recovered.Store(uint64(len(rep.samples)))
	s.d.walTruncations.Add(uint64(rep.truncated))

	// New appends go to a fresh log file; the recovered files keep backing
	// the recovered memtable until it flushes.
	wf, err := s.d.createWAL()
	if err != nil {
		return err
	}
	s.wal = wf
	s.walNames = append(s.walNames, wf.name)
	s.mutateLocked()

	// An oversized recovered memtable (the previous process died between
	// threshold and flush) flushes immediately.
	if s.mem.len() >= s.opt.FlushThreshold {
		if err := s.freezeLocked(); err != nil {
			return err
		}
		if err := s.flushPending(); err != nil {
			return err
		}
	}
	s.d.recoverySeconds.Store(uint64(time.Since(start).Microseconds()))
	return nil
}

// derived is everything the stored samples imply: the distinct-IP and
// distinct-engine sets over all campaigns, the (previous, current)
// observation pair and the incremental alias index over the latest
// campaign pair. Rebuilt at open by both Store and Replica.
type derived struct {
	campaign  uint64
	ingested  uint64
	known     map[netip.Addr]struct{}
	engines   map[string]struct{}
	prev, cur map[netip.Addr]*core.Observation
	aidx      *aliasIndex
}

// rebuildDerived reconstructs the derived state from installed segments and
// not-yet-flushed memtable samples, replaying the latest campaign's samples
// in seq order — exactly the call sequence the live ingest path made.
//
// Lazy (v3) segments answer the global pass from their indexes and footer
// alone — known IPs from the ip-index flag bits, engines from the
// engine-index keys, counts and campaign bounds from the footer — and their
// sample blocks are decoded only when the footer's campaign range
// intersects the (previous, current) alias pair. On a store with a long
// segment tail, recovery reads a few percent of the bytes it used to.
//
// The replay allocates per chunk, not per sample: the sets and the pair
// are presized from index and footer counts, each campaign of the pair is
// one observation slab and one engine-ID arena, and the seq sort runs only
// when the replay arrives out of order (Ingest assigns seq in address
// order, which is segment order, so normally it does not).
func rebuildDerived(segs []*segment, mem []Sample, campaign uint64, variant alias.Variant) (derived, error) {
	// The largest segment's counts are a lower bound on the distinct sets;
	// with one compacted segment, or one per campaign, they are most of it.
	nIP, nEng := 0, 0
	for _, g := range segs {
		if lz := g.lz; lz != nil {
			nIP = max(nIP, lz.n4+lz.n6)
			nEng = max(nEng, lz.nEng)
		}
	}
	d := derived{
		campaign: campaign,
		known:    make(map[netip.Addr]struct{}, nIP),
		engines:  make(map[string]struct{}, nEng),
		aidx:     newAliasIndex(variant),
	}
	addEngine := func(id []byte) {
		// The lookup converts without allocating; only a new key does.
		if _, ok := d.engines[string(id)]; !ok {
			d.engines[string(id)] = struct{}{}
		}
	}
	global := func(sm *Sample) {
		if sm.Campaign > d.campaign {
			d.campaign = sm.Campaign
		}
		d.ingested++
		// Non-SNMP evidence never touched known/engines on the live path
		// (addEvidenceLocked), so replay skips it the same way.
		if sm.Protocol != "" {
			return
		}
		d.known[sm.IP] = struct{}{}
		if len(sm.EngineID) > 0 {
			addEngine(sm.EngineID)
		}
	}
	for _, g := range segs {
		if lz := g.lz; lz != nil {
			d.ingested += uint64(lz.count)
			if lz.maxC > d.campaign {
				d.campaign = lz.maxC
			}
			lz.forEachIPEntry(func(addr netip.Addr, flags byte) {
				if flags&segFlagSNMP != 0 {
					d.known[addr] = struct{}{}
				}
			})
			lz.forEachEngineID(addEngine)
			continue
		}
		if err := g.scan(global); err != nil {
			return d, err
		}
	}
	for i := range mem {
		global(&mem[i])
	}
	if d.campaign == 0 {
		d.prev = map[netip.Addr]*core.Observation{}
		d.cur = map[netip.Addr]*core.Observation{}
		return d, nil
	}
	// Presize each side from the footers, assuming a segment's samples
	// spread evenly over its campaign range, plus an eighth for campaigns
	// that answered more: growing a slab copies all of it.
	var prev, cur pairReplay
	nPrev, nCur := 0, len(mem)
	for _, g := range segs {
		if lz := g.lz; lz != nil {
			per := lz.count / (int(min(lz.maxC-lz.minC, uint64(lz.count))) + 1)
			if g.mayContainCampaign(d.campaign - 1) {
				nPrev += per
			}
			if g.mayContainCampaign(d.campaign) {
				nCur += per
			}
		}
	}
	prev.obs = make([]replayObs, 0, nPrev+nPrev/8)
	cur.obs = make([]replayObs, 0, nCur+nCur/8)
	pick := func(sm *Sample) {
		// The alias pipeline is SNMPv3-only: non-SNMP evidence must
		// never enter prev/cur or the incremental alias index (it
		// fuses downstream, in internal/fusion).
		if sm.Protocol != "" {
			return
		}
		switch sm.Campaign {
		case d.campaign - 1:
			prev.add(sm)
		case d.campaign:
			cur.add(sm)
		}
	}
	for _, g := range segs {
		if !g.mayContainCampaign(d.campaign-1) && !g.mayContainCampaign(d.campaign) {
			continue
		}
		if err := g.scan(pick); err != nil {
			return d, err
		}
	}
	for i := range mem {
		pick(&mem[i])
	}
	prev.sortBySeq()
	cur.sortBySeq()
	d.prev = make(map[netip.Addr]*core.Observation, len(prev.obs))
	for i := range prev.obs {
		o := &prev.obs[i].o
		d.prev[o.IP] = o
	}
	d.cur = make(map[netip.Addr]*core.Observation, len(cur.obs))
	d.aidx.reset([2]uint64{d.campaign - 1, d.campaign}, min(len(d.prev), len(cur.obs)))
	for i := range cur.obs {
		o := &cur.obs[i].o
		d.cur[o.IP] = o
		d.aidx.update(o.IP, d.prev[o.IP], o)
	}
	return d, nil
}

// replayObs is one SNMPv3 sample of the alias pair as rebuildDerived
// replays it: the observation, and the seq that orders the replay.
type replayObs struct {
	seq uint64
	o   core.Observation
}

// pairReplay gathers one campaign of the alias pair: the observations in
// one slab the derived maps point into, their engine IDs in one arena of
// their own (the scan's arena also holds the IDs of every campaign outside
// the pair, which the derived state must not pin).
type pairReplay struct {
	obs []replayObs
	ids idArena
}

func (p *pairReplay) add(sm *Sample) {
	o := sm.observation()
	o.EngineID = p.ids.copy(o.EngineID)
	p.obs = append(p.obs, replayObs{seq: sm.Seq, o: o})
}

// sortBySeq puts the replay in seq order, checking first: a store built by
// Ingest alone is already in order.
func (p *pairReplay) sortBySeq() {
	bySeq := func(a, b replayObs) int { return cmp.Compare(a.seq, b.seq) }
	if !slices.IsSortedFunc(p.obs, bySeq) {
		slices.SortFunc(p.obs, bySeq)
	}
}

// registerMetrics republishes the store's counters and layout gauges as
// read-time callbacks, so scrapes reconcile exactly with Stats() without
// adding a single write to the ingest path.
func (s *Store) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	locked := func(read func() float64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return read()
		}
	}
	counters := []struct {
		name string
		read func() float64
	}{
		{"snmpfp_store_ingested_total", func() float64 { return float64(s.ingested) }},
		{"snmpfp_store_flushes_total", func() float64 { return float64(s.flushes) }},
		{"snmpfp_store_compactions_total", func() float64 { return float64(s.compactions) }},
		{"snmpfp_store_superseded_total", func() float64 { return float64(s.superseded) }},
	}
	for _, c := range counters {
		read := locked(c.read)
		reg.CounterFunc(c.name, func() uint64 { return uint64(read()) })
	}
	gauges := []struct {
		name string
		read func() float64
	}{
		{"snmpfp_store_mem_samples", func() float64 { return float64(s.memSamplesLocked()) }},
		{"snmpfp_store_segments", func() float64 { return float64(len(s.segs)) }},
		{"snmpfp_store_campaigns", func() float64 { return float64(s.campaign) }},
		{"snmpfp_store_tracked_ips", func() float64 { return float64(len(s.known)) }},
		{"snmpfp_store_devices", func() float64 { return float64(len(s.engines)) }},
	}
	for _, g := range gauges {
		reg.GaugeFunc(g.name, locked(g.read))
	}
	reg.Help("snmpfp_store_ingested_total", "samples ever accepted")
	reg.Help("snmpfp_store_flushes_total", "memtable freezes into immutable segments")
	reg.Help("snmpfp_store_compactions_total", "segment merges completed")
	reg.Help("snmpfp_store_superseded_total", "samples discarded by compaction as superseded")
	reg.Help("snmpfp_store_mem_samples", "current memtable population (frozen generations included)")
	reg.Help("snmpfp_store_segments", "immutable segment count")
	reg.Help("snmpfp_store_campaigns", "campaigns begun")
	reg.Help("snmpfp_store_tracked_ips", "distinct IPs ever observed")
	reg.Help("snmpfp_store_devices", "distinct engine IDs ever observed")

	if s.d != nil {
		reg.CounterFunc("snmpfp_store_wal_appends_total", s.d.walAppends.Load)
		reg.CounterFunc("snmpfp_store_wal_bytes_total", s.d.walBytes.Load)
		reg.CounterFunc("snmpfp_store_wal_fsyncs_total", s.d.walFsyncs.Load)
		reg.CounterFunc("snmpfp_store_wal_replay_truncations_total", s.d.walTruncations.Load)
		reg.GaugeFunc("snmpfp_store_recovered_samples", func() float64 { return float64(s.d.recovered.Load()) })
		reg.GaugeFunc("snmpfp_store_recovery_seconds", func() float64 { return float64(s.d.recoverySeconds.Load()) / 1e6 })
		s.d.setFsyncHist(reg.Histogram("snmpfp_store_fsync_seconds", obs.ExpBuckets(1e-5, 4, 10)))
		reg.Help("snmpfp_store_wal_appends_total", "write-ahead-log batch appends")
		reg.Help("snmpfp_store_wal_bytes_total", "bytes appended to the write-ahead log")
		reg.Help("snmpfp_store_wal_fsyncs_total", "write-ahead-log fsync calls")
		reg.Help("snmpfp_store_wal_replay_truncations_total", "log files truncated or dropped at a corrupt tail during recovery")
		reg.Help("snmpfp_store_recovered_samples", "samples replayed from the write-ahead log at open")
		reg.Help("snmpfp_store_recovery_seconds", "how long crash recovery took at open")
		reg.Help("snmpfp_store_fsync_seconds", "fsync latency, write-ahead log and segment files")
	}
	if s.segStat != nil {
		reg.CounterFunc("snmpfp_store_seg_query_bytes_total", s.segStat.queryBytes.Load)
		reg.Help("snmpfp_store_seg_query_bytes_total", "segment bytes touched by point lookups (index probes plus decoded samples; bloom rejections cost zero)")
	}
	if s.repl != nil {
		reg.CounterFunc("snmpfp_store_repl_commits_total", s.repl.commits.Load)
		reg.GaugeFunc("snmpfp_store_repl_subscribers", func() float64 { return float64(s.repl.subscribers.Load()) })
		reg.Help("snmpfp_store_repl_commits_total", "replication states published (manifest commits)")
		reg.Help("snmpfp_store_repl_subscribers", "connected replication subscribers")
	}
}

// SegBytesRead reports how many segment bytes point lookups have touched —
// index entries probed plus sample bytes decoded; bloom-filter rejections
// count zero. The same counter backs
// snmpfp_store_seg_query_bytes_total, which ./benchmark reports per query
// as store.seg_bytes_per_query; TestSegmentBloomScreensNegatives pins the
// bloom filters' effect on it. Always zero for in-memory stores.
func (s *Store) SegBytesRead() uint64 {
	if s.segStat == nil {
		return 0
	}
	return s.segStat.queryBytes.Load()
}

// memSamplesLocked is the not-yet-installed population: the live memtable
// plus every frozen generation awaiting flush.
func (s *Store) memSamplesLocked() int {
	n := s.mem.len()
	for _, f := range s.frozen {
		n += len(f.samples)
	}
	return n
}

// usableLocked reports whether mutations may proceed.
func (s *Store) usableLocked() error {
	if s.closed {
		return ErrClosed
	}
	return s.diskErr
}

// fail latches the first durable-path error; later mutations fail fast.
func (s *Store) fail(err error) error {
	s.mu.Lock()
	if s.diskErr == nil {
		s.diskErr = err
	}
	s.mu.Unlock()
	return err
}

// Close seals the store: it stops the background compactor, freezes and
// flushes the memtable (so no buffered sample is dropped on a clean
// shutdown), and — durably — writes a final manifest and deletes the
// now-empty write-ahead log. The store stays queryable; mutations return
// ErrClosed.
func (s *Store) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		s.wg.Wait()
		s.mu.Lock()
		err = s.freezeLocked()
		s.closed = true
		s.mu.Unlock()
		if err != nil {
			return
		}
		if err = s.flushPending(); err != nil {
			return
		}
		if s.d == nil {
			return
		}
		// The memtable is flushed, so the log holds nothing the segments
		// don't: persist the campaign counter in a final manifest, then
		// drop the log.
		s.diskMu.Lock()
		defer s.diskMu.Unlock()
		s.mu.Lock()
		m := s.manifestLocked()
		wal, names := s.wal, s.walNames
		s.wal, s.walNames = nil, nil
		s.mu.Unlock()
		if wal != nil {
			wal.retire()
		}
		if err = s.d.writeManifest(m); err != nil {
			return
		}
		s.publishRepl(m)
		for _, name := range names {
			if err = s.d.removeWAL(name); err != nil {
				return
			}
		}
	})
	return err
}

// BeginCampaign seals the current campaign (flushing its samples to a
// segment) and starts the next one, advancing the alias pair to (previous,
// new). The boundary is logged and fsynced before it returns. Returns the
// new campaign's 1-based sequence number.
func (s *Store) BeginCampaign() (uint64, error) {
	s.mu.Lock()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	if err := s.freezeLocked(); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	s.campaign++
	n := s.campaign
	s.prev = s.cur
	s.cur = map[netip.Addr]*core.Observation{}
	s.aidx.reset([2]uint64{s.campaign - 1, s.campaign}, 0)
	s.pub.alias = nil
	if s.d != nil {
		s.walBuf = appendWALBegin(s.walBuf, s.campaign)
	}
	s.mutateLocked()
	wf, end, err := s.commitLocked()
	s.mu.Unlock()
	if err != nil {
		return n, err
	}
	if wf != nil {
		if err := wf.sync(s.d, end); err != nil {
			return n, s.fail(err)
		}
	}
	return n, s.flushPending()
}

// Add ingests one observation into the current campaign: it lands in the
// write-ahead log (fsynced before Add returns — the acknowledgment is the
// durability contract) and the memtable, updates the per-campaign pair
// state and the incremental alias index, and flushes if the memtable is
// full. Re-adding an IP within the same campaign supersedes the earlier
// sample.
func (s *Store) Add(o *core.Observation) error {
	s.mu.Lock()
	if s.campaign == 0 {
		s.mu.Unlock()
		return ErrNoCampaign
	}
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	s.addLocked(o)
	needFlush := s.mem.len() >= s.opt.FlushThreshold
	wf, end, err := s.commitLocked()
	if err == nil && needFlush {
		err = s.freezeLocked()
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if wf != nil {
		if err := wf.sync(s.d, end); err != nil {
			return s.fail(err)
		}
	}
	if needFlush {
		return s.flushPending()
	}
	return nil
}

// addLocked is the ingest step proper; the caller holds s.mu, has verified
// a campaign is open, and is responsible for committing the log buffer and
// flushing afterwards. Batched ingest amortizes the lock, the log append
// and the fsync across many samples by calling this in a loop.
func (s *Store) addLocked(o *core.Observation) {
	s.seq++
	sm := sampleFrom(o, s.campaign, s.seq)
	if s.d != nil {
		s.walBuf = appendWALSample(s.walBuf, &sm)
	}
	s.mem.add(sm)
	s.ingested++
	s.known[o.IP] = struct{}{}
	if len(o.EngineID) > 0 {
		s.engines[string(o.EngineID)] = struct{}{}
	}
	s.cur[o.IP] = o
	s.aidx.update(o.IP, s.prev[o.IP], o)
	s.pub.alias = nil
	s.mutateLocked()
}

// commitLocked drains the pending log records to the current WAL file in
// one append. The caller must sync the returned file through the returned
// offset — outside the store lock — before acknowledging.
func (s *Store) commitLocked() (*walFile, int64, error) {
	if s.d == nil || len(s.walBuf) == 0 {
		return nil, 0, nil
	}
	wf := s.wal
	end, err := wf.append(s.d, s.walBuf)
	s.walBuf = s.walBuf[:0]
	if err != nil {
		if s.diskErr == nil {
			s.diskErr = err
		}
		return nil, 0, err
	}
	return wf, end, nil
}

// freezeLocked retires the memtable to the frozen queue and rotates the
// write-ahead log, so the flusher can build and persist the segment without
// the store lock. The caller must have drained walBuf (commitLocked) first:
// pending records belong to the generation being frozen.
func (s *Store) freezeLocked() error {
	if s.mem.len() == 0 {
		return nil
	}
	f := &frozenMem{samples: s.mem.samples, walNames: s.walNames}
	if s.wal != nil {
		f.walRefs = []*walFile{s.wal}
	}
	s.frozen = append(s.frozen, f)
	s.mem = newMemtable()
	s.walNames = nil
	if s.d != nil {
		wf, err := s.d.createWAL()
		if err != nil {
			s.wal = nil
			if s.diskErr == nil {
				s.diskErr = err
			}
			return err
		}
		s.wal = wf
		s.walNames = []string{wf.name}
	}
	return nil
}

// ingestCheckEvery is how many samples Ingest adds between context checks.
const ingestCheckEvery = 256

// Ingest begins a new campaign and adds every observation of c in address
// order (deterministic segment contents), checking ctx between batches.
// Batches are split at the flush threshold, so the memtable never
// overshoots it no matter how large the campaign; each batch is logged,
// fsynced and — when the threshold is reached — flushed before the next
// begins. On cancellation it stops early and returns ctx's error; the
// samples already added remain in the store as a partial campaign (queries
// observe them, and the next campaign ingest supersedes the pair state as
// usual). Returns the campaign sequence number.
//
// A campaign becomes visible when Ingest returns: until then Snapshot keeps
// serving the pre-campaign view, and every return path — cancellation and
// errors included — publishes what was added, in one step.
func (s *Store) Ingest(ctx context.Context, c *core.Campaign) (uint64, error) {
	span := s.tracer.Start("store.ingest")
	defer span.End()
	s.mu.Lock()
	if s.pub.cur.Load() == nil {
		s.publishLocked() // the pre-campaign view readers keep meanwhile
	}
	s.ingesting++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.ingesting--
		s.publishLocked()
		s.mu.Unlock()
	}()
	n, err := s.BeginCampaign()
	if err != nil {
		return n, err
	}
	ips := c.SortedIPs()
	for i := 0; i < len(ips); {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		s.mu.Lock()
		if err := s.usableLocked(); err != nil {
			s.mu.Unlock()
			return n, err
		}
		// One lock acquisition, one log append and one fsync per batch;
		// the batch is capped at the flush boundary so the memtable never
		// exceeds the threshold.
		batch := ingestCheckEvery
		if room := s.opt.FlushThreshold - s.mem.len(); room < batch {
			batch = room
		}
		end := i + batch
		if end > len(ips) {
			end = len(ips)
		}
		s.mem.reserve(end - i)
		for ; i < end; i++ {
			s.addLocked(c.ByIP[ips[i]])
		}
		needFlush := s.mem.len() >= s.opt.FlushThreshold
		wf, off, err := s.commitLocked()
		if err == nil && needFlush {
			err = s.freezeLocked()
		}
		s.mu.Unlock()
		if err != nil {
			return n, err
		}
		if wf != nil {
			if err := wf.sync(s.d, off); err != nil {
				return n, s.fail(err)
			}
		}
		if needFlush {
			if err := s.flushPending(); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// Flush seals the memtable into an immutable segment immediately.
func (s *Store) Flush() error {
	s.mu.Lock()
	err := s.freezeLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.flushPending()
}

// mutateLocked marks store state changed: bumps the version and, outside an
// Ingest, withdraws the published view so the next Snapshot rebuilds.
func (s *Store) mutateLocked() {
	s.version++
	if s.ingesting == 0 {
		s.pub.cur.Store(nil)
	}
}

// manifestLocked renders the manifest for the current installed state.
func (s *Store) manifestLocked() *manifest {
	m := &manifest{
		Version:   1,
		Campaigns: s.campaign,
		Seq:       s.durableSeq,
		NextFile:  s.d.nextFile.Load(),
	}
	for _, g := range s.segs {
		if g.file != "" {
			m.Segments = append(m.Segments, g.file)
		}
	}
	return m
}

// flushPending drains the frozen queue: for each generation it builds the
// sorted, indexed segment and (durably) writes it to disk — all without the
// store lock, so concurrent Ingest and Snapshot callers never stall behind
// segment construction — then briefly re-locks to install it, commits the
// manifest, and deletes the generation's write-ahead log.
func (s *Store) flushPending() error {
	s.diskMu.Lock()
	defer s.diskMu.Unlock()
	for {
		s.mu.Lock()
		if len(s.frozen) == 0 {
			s.mu.Unlock()
			return nil
		}
		f := s.frozen[0]
		seg := f.seg
		s.mu.Unlock()

		span := s.tracer.Start("store.flush")
		if seg == nil {
			// A concurrent snapshot may have built it already; otherwise
			// sort and index here, outside the store lock.
			seg = (&memtable{samples: f.samples}).freeze()
		}
		if s.d != nil {
			name := fileName(s.d.nextFile.Add(1), ".seg")
			if err := s.d.writeSegmentFile(name, seg, true); err != nil {
				span.End()
				return s.fail(err)
			}
			// Install the just-written file's lazy (mmap-backed, bloom-
			// screened) form rather than the eager build: the heap copy is
			// released, and reads immediately benefit from the filter.
			lzg, err := openSegment(s.d.dir, name, s.segStat, false)
			if err != nil {
				span.End()
				return s.fail(err)
			}
			seg = lzg
		}

		var man *manifest
		s.mu.Lock()
		f.seg = seg
		s.segs = append(s.segs, seg)
		s.frozen = s.frozen[1:]
		s.flushes++
		if n := len(f.samples); n > 0 {
			if last := f.samples[n-1].Seq; last > s.durableSeq {
				s.durableSeq = last
			}
		}
		if s.d != nil {
			man = s.manifestLocked()
		}
		s.mutateLocked()
		s.mu.Unlock()
		span.End()

		if s.d != nil {
			if err := s.d.writeManifest(man); err != nil {
				return s.fail(err)
			}
			s.publishRepl(man)
			// The generation is durable in its segment; its log is now
			// redundant.
			for _, wf := range f.walRefs {
				wf.retire()
			}
			for _, name := range f.walNames {
				if err := s.d.removeWAL(name); err != nil {
					return s.fail(err)
				}
			}
		}
		select {
		case s.compactCh <- struct{}{}:
		default:
		}
	}
}

func (s *Store) compactor() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.compactCh:
			// Errors latch diskErr; the next mutation reports them.
			_ = s.compactIfNeeded(s.opt.MaxSegments)
		}
	}
}

// Compact merges all current segments into one, discarding superseded
// samples, regardless of the MaxSegments trigger.
func (s *Store) Compact() error {
	return s.compactIfNeeded(2)
}

// compactIfNeeded merges when at least minSegs segments exist. The merge —
// and, durably, the merged segment's file write — runs without the store
// lock; diskMu excludes the flusher, so the merged prefix cannot change
// underneath (the stability check stays as a cheap invariant). The swap
// commits via the manifest before the superseded segment files are
// deleted, so no crash point loses data.
func (s *Store) compactIfNeeded(minSegs int) error {
	s.diskMu.Lock()
	defer s.diskMu.Unlock()
	s.mu.Lock()
	if len(s.segs) < minSegs || s.diskErr != nil {
		err := s.diskErr
		s.mu.Unlock()
		return err
	}
	prefix := s.segs[:len(s.segs):len(s.segs)]
	s.mu.Unlock()

	span := s.tracer.Start("store.compact")
	merged, dropped, err := mergeSegments(prefix)
	span.End()
	if err != nil {
		return s.fail(err)
	}

	if s.d != nil {
		name := fileName(s.d.nextFile.Add(1), ".seg")
		if err := s.d.writeSegmentFile(name, merged, true); err != nil {
			return s.fail(err)
		}
		lzg, err := openSegment(s.d.dir, name, s.segStat, false)
		if err != nil {
			return s.fail(err)
		}
		merged = lzg
	}

	var man *manifest
	s.mu.Lock()
	same := len(s.segs) >= len(prefix)
	if same {
		for i := range prefix {
			if s.segs[i] != prefix[i] {
				same = false
				break
			}
		}
	}
	if !same {
		// Unreachable while diskMu serializes segment mutators; the merged
		// file, if any, is swept as an orphan on the next open.
		s.mu.Unlock()
		return nil
	}
	rest := s.segs[len(prefix):]
	next := make([]*segment, 0, 1+len(rest))
	next = append(next, merged)
	next = append(next, rest...)
	s.segs = next
	s.compactions++
	s.superseded += uint64(dropped)
	if s.d != nil {
		man = s.manifestLocked()
	}
	s.mutateLocked()
	s.mu.Unlock()

	if s.d != nil {
		if err := s.d.writeManifest(man); err != nil {
			return s.fail(err)
		}
		s.publishRepl(man)
		for _, g := range prefix {
			if g.file != "" {
				if err := s.d.removeSegment(g.file); err != nil {
					return s.fail(err)
				}
			}
		}
	}
	return nil
}

// Snapshot returns the published view: one pointer load, no store lock, so
// readers neither block ingest nor wait for it. A campaign becomes visible
// when Ingest returns; Add, BeginCampaign, IngestEvidence, flushes and
// compactions outside an Ingest withdraw the view instead, and only then
// does Snapshot take the lock and rebuild (so Add keeps read-your-writes).
func (s *Store) Snapshot() *View {
	if v := s.pub.cur.Load(); v != nil {
		return v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := s.pub.cur.Load(); v != nil {
		return v
	}
	return s.publishLocked()
}

// publishLocked builds a view of the current state — one memtable freeze,
// plus one alias-set materialization if the index moved — and publishes it.
func (s *Store) publishLocked() *View {
	segs := make([]*segment, 0, len(s.segs)+len(s.frozen)+1)
	segs = append(segs, s.segs...)
	for _, f := range s.frozen {
		if f.seg == nil {
			f.seg = (&memtable{samples: f.samples}).freeze()
		}
		segs = append(segs, f.seg)
	}
	if s.mem.len() > 0 {
		segs = append(segs, s.mem.freeze())
	}
	return s.pub.publish(segs, s.campaign, s.statsLocked(), s.aidx)
}

// statsLocked renders the point-in-time Stats under s.mu. Shared by
// Snapshot and the replication publisher (replicas serve the primary's
// stats verbatim, so both must render from the same fields).
func (s *Store) statsLocked() Stats {
	segSamples := 0
	for _, g := range s.segs {
		segSamples += g.length()
	}
	return Stats{
		Version:           s.version,
		Campaigns:         s.campaign,
		Ingested:          s.ingested,
		MemSamples:        s.memSamplesLocked(),
		Segments:          len(s.segs),
		SegmentSamples:    segSamples,
		Flushes:           s.flushes,
		Compactions:       s.compactions,
		Superseded:        s.superseded,
		TrackedIPs:        len(s.known),
		CurrentResponsive: len(s.cur),
		Devices:           len(s.engines),
		AliasSets:         s.aidx.setCount(),
		Vendors:           s.aidx.vendorCount(),
	}
}
