package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"snmpv3fp/internal/alias"
	"snmpv3fp/internal/obs"
	"snmpv3fp/internal/wire"
)

// Replica is the read-only receiving end of segment-shipping replication: a
// store directory populated over the wire instead of by ingest. It holds
// the same on-disk layout as a primary (segment files plus MANIFEST, minus
// any WAL), opens its segments through the same lazy mmap/bloom machinery,
// and serves the same Snapshot interface — so an HTTP tier in front of a
// Replica is byte-identical to one in front of the primary once the replica
// has applied the primary's latest commit and the primary has flushed its
// memtable.
//
// Commits apply atomically: the shipped manifest bytes are renamed into
// place first, then the in-memory segment set swaps and the commit's view is
// published in one critical section, and only after that are superseded
// local segment files deleted — a segment shipped and then superseded by a
// racing compaction can therefore never resurrect into the serving state.
type Replica struct {
	opt     ReplicaOptions
	d       *disk
	segStat *segStats

	mu      sync.Mutex
	byName  map[string]*segment
	held    map[string]bool // complete segment files on disk
	applied uint64          // applied manifest seq horizon
	pub     viewPub         // published at open and by every commit
	// conns are the connections of Sync calls in flight, which syncs counts;
	// Close severs the former and waits for the latter.
	conns  map[net.Conn]struct{}
	closed bool
	syncs  sync.WaitGroup

	primarySeq atomic.Uint64
	appliedSeq atomic.Uint64
	commits    atomic.Uint64
	connected  atomic.Int64
}

// ReplicaOptions tunes a replica.
type ReplicaOptions struct {
	// Dir is the replica's store directory; created if absent.
	Dir string
	// Variant is the alias-resolution rule used to rebuild derived state
	// from shipped segments (default alias.Default). Must match the
	// primary's for byte-identical query results.
	Variant alias.Variant
	// Obs, when non-nil, receives the replica's metrics.
	Obs *obs.Registry
	// VerifyOnOpen checksums and decodes every sample of every shipped
	// segment at open and apply time.
	VerifyOnOpen bool
}

// replicaStatsName is the file the last shipped primary Stats persist in,
// so a restarted replica serves consistent stats before its first commit.
const replicaStatsName = "REPLICA"

// ErrReplicaGap reports a commit listing a segment the replica does not
// hold — the stream skipped ahead (e.g. a different primary). The replica
// should reconnect and resynchronize from a fresh Hello.
var ErrReplicaGap = errors.New("store: replica: commit references a segment not shipped")

// ErrBadSegmentName reports a shipped segment whose name is not a canonical
// segment file name (NNNNNN.seg). The replica would otherwise write, and
// later delete, whatever path an unauthenticated peer names.
var ErrBadSegmentName = errors.New("store: replica: invalid segment name")

// OpenReplica opens (or creates) a replica directory and loads whatever a
// previous session applied: manifest, segments, last shipped stats.
// Leftover partial downloads (tmp files) and segments no applied manifest
// lists are swept, exactly like primary crash recovery.
func OpenReplica(opt ReplicaOptions) (*Replica, error) {
	zero := alias.Variant{}
	if opt.Variant == zero {
		opt.Variant = alias.Default
	}
	r := &Replica{
		opt:     opt,
		d:       &disk{dir: opt.Dir},
		segStat: &segStats{},
		byName:  map[string]*segment{},
		held:    map[string]bool{},
		conns:   map[net.Conn]struct{}{},
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, err
	}
	man, _, err := readManifest(opt.Dir)
	if err != nil {
		return nil, err
	}
	_, orphans, _, err := scanDir(opt.Dir, &man)
	if err != nil {
		return nil, err
	}
	for _, name := range orphans {
		if err := os.Remove(filepath.Join(opt.Dir, name)); err != nil {
			return nil, err
		}
	}
	var segs []*segment
	for _, name := range man.Segments {
		g, err := openSegment(opt.Dir, name, r.segStat, opt.VerifyOnOpen)
		if err != nil {
			return nil, err
		}
		segs = append(segs, g)
		r.byName[name] = g
		r.held[name] = true
	}
	der, err := rebuildDerived(segs, nil, man.Campaigns, opt.Variant)
	if err != nil {
		return nil, err
	}
	r.applied = man.Seq
	r.appliedSeq.Store(man.Seq)
	r.primarySeq.Store(man.Seq)
	// No stats shipped yet: serve locally derived counts so the endpoints
	// are coherent, even though live-primary counters (flushes, memtable)
	// are unknowable here.
	stats := Stats{
		Campaigns:         der.campaign,
		Ingested:          der.ingested,
		Segments:          len(segs),
		TrackedIPs:        len(der.known),
		CurrentResponsive: len(der.cur),
		Devices:           len(der.engines),
		AliasSets:         der.aidx.setCount(),
		Vendors:           der.aidx.vendorCount(),
	}
	for _, g := range segs {
		stats.SegmentSamples += g.length()
	}
	if data, err := os.ReadFile(filepath.Join(opt.Dir, replicaStatsName)); err == nil {
		var shipped Stats
		if json.Unmarshal(data, &shipped) == nil {
			stats = shipped
		}
	}
	r.pub.publish(segs, der.campaign, stats, der.aidx)
	r.registerMetrics(opt.Obs)
	return r, nil
}

func (r *Replica) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("snmpfp_replica_applied_seq", func() float64 { return float64(r.appliedSeq.Load()) })
	reg.GaugeFunc("snmpfp_replica_primary_seq", func() float64 { return float64(r.primarySeq.Load()) })
	reg.GaugeFunc("snmpfp_replica_lag_seq", func() float64 {
		return float64(r.primarySeq.Load()) - float64(r.appliedSeq.Load())
	})
	reg.GaugeFunc("snmpfp_replica_connected", func() float64 { return float64(r.connected.Load()) })
	reg.CounterFunc("snmpfp_replica_commits_total", r.commits.Load)
	reg.Help("snmpfp_replica_applied_seq", "manifest seq horizon applied locally")
	reg.Help("snmpfp_replica_primary_seq", "latest manifest seq horizon received from the primary")
	reg.Help("snmpfp_replica_lag_seq", "replication lag: primary seq horizon minus applied")
	reg.Help("snmpfp_replica_connected", "1 while a replication stream to the primary is live")
	reg.Help("snmpfp_replica_commits_total", "manifest commits applied")
	reg.CounterFunc("snmpfp_store_seg_query_bytes_total", r.segStat.queryBytes.Load)
}

// Close severs every Sync in flight and waits for it to return, so nothing
// writes to Dir afterwards; later Sync calls fail with ErrClosed.
func (r *Replica) Close() error {
	r.mu.Lock()
	r.closed = true
	conns := make([]net.Conn, 0, len(r.conns))
	for conn := range r.conns {
		conns = append(conns, conn)
	}
	r.mu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
	r.syncs.Wait()
	return nil
}

// Snapshot returns the view the last applied commit published — the same
// View type a primary's Snapshot returns, so a serve tier accepts either.
func (r *Replica) Snapshot() *View { return r.pub.cur.Load() }

// SyncLoop dials the primary and replicates until ctx is cancelled,
// reconnecting with a backoff after any error — the long-running mode
// behind snmpfpd -replica-of.
func (r *Replica) SyncLoop(ctx context.Context, addr string) error {
	backoff := 250 * time.Millisecond
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			start := time.Now()
			err = r.Sync(ctx, conn)
			if time.Since(start) > 10*time.Second {
				backoff = 250 * time.Millisecond
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, ErrClosed) {
			return err
		}
		_ = err // transient: reconnect
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < 4*time.Second {
			backoff *= 2
		}
	}
}

// Sync replicates over one established connection until the stream ends,
// ctx is cancelled or the replica is closed (ErrClosed). Taking the conn
// rather than an address makes fault injection trivial: tests hand in one
// half of a pipe or a conn they sever mid-ship.
func (r *Replica) Sync(ctx context.Context, conn net.Conn) (err error) {
	defer conn.Close()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	r.conns[conn] = struct{}{}
	r.syncs.Add(1)
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.conns, conn)
		if r.closed {
			err = ErrClosed // Close severed the connection
		}
		r.mu.Unlock()
		r.syncs.Done()
	}()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-stop:
		}
	}()

	r.connected.Add(1)
	defer r.connected.Add(-1)

	r.mu.Lock()
	hello := replHello{Version: replProtoVersion, AppliedSeq: r.applied}
	for name := range r.held {
		hello.Held = append(hello.Held, name)
	}
	r.mu.Unlock()
	if err := wire.WriteFrame(conn, replFrameHello, appendReplHello(nil, hello)); err != nil {
		return err
	}

	// incoming is the segment file currently being streamed, nil between
	// files.
	var incoming *replSeg
	var incomingBuf []byte
	for {
		typ, body, err := wire.ReadFrame(conn)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		switch {
		case typ == replFrameSeg:
			seg, err := parseReplSeg(body)
			if err != nil {
				return err
			}
			// The name becomes a path in Dir now and a delete target once a
			// later manifest drops it: only a canonical segment file name
			// may pass, never "../x" or "MANIFEST".
			if n, ok := fileNumber(seg.Name, ".seg"); !ok || fileName(n, ".seg") != seg.Name {
				return fmt.Errorf("%w: %q", ErrBadSegmentName, seg.Name)
			}
			if seg.Size > 1<<32 {
				return fmt.Errorf("store: replica: segment %s implausibly large (%d bytes)", seg.Name, seg.Size)
			}
			incoming = &seg
			// Size is the peer's say-so: reserve at most one chunk up front
			// and let the chunks that actually arrive grow the buffer.
			incomingBuf = make([]byte, 0, min(seg.Size, replChunkSize))
		case typ == replFrameChunk && incoming != nil:
			if uint64(len(incomingBuf)+len(body)) > incoming.Size {
				return fmt.Errorf("store: replica: segment %s overflows its announced size", incoming.Name)
			}
			incomingBuf = append(incomingBuf, body...)
		case typ == replFrameSegDone && incoming != nil:
			if uint64(len(incomingBuf)) != incoming.Size {
				return fmt.Errorf("store: replica: segment %s truncated (%d of %d bytes)", incoming.Name, len(incomingBuf), incoming.Size)
			}
			if crc32.Checksum(incomingBuf, castagnoli) != incoming.CRC {
				return fmt.Errorf("store: replica: segment %s checksum mismatch", incoming.Name)
			}
			if err := writeFileAtomic(r.opt.Dir, incoming.Name, incomingBuf); err != nil {
				return err
			}
			r.mu.Lock()
			r.held[incoming.Name] = true
			r.mu.Unlock()
			incoming, incomingBuf = nil, nil
		case typ == replFrameCommit:
			c, err := parseReplCommit(body)
			if err != nil {
				return err
			}
			if err := r.applyCommit(c); err != nil {
				return err
			}
			if err := wire.WriteFrame(conn, replFrameAck, appendReplAck(nil, r.appliedSeq.Load())); err != nil {
				return err
			}
		default:
			// Includes a Chunk or SegDone outside a segment.
			return fmt.Errorf("store: replica: unexpected frame %d", typ)
		}
	}
}

// applyCommit makes a shipped (manifest, stats) pair the serving state:
// manifest to disk first, then the atomic in-memory swap, then cleanup of
// segments the new manifest no longer lists.
func (r *Replica) applyCommit(c replCommit) error {
	man, err := parseManifest(c.Manifest)
	if err != nil {
		return err
	}
	r.primarySeq.Store(man.Seq)
	var stats Stats
	if err := json.Unmarshal(c.Stats, &stats); err != nil {
		return fmt.Errorf("store: replica: stats decode: %w", err)
	}

	// Every listed segment must already be on disk — the protocol ships
	// segments before their commit, and Hello told the primary what we
	// hold. Anything missing means the stream and our state diverged.
	r.mu.Lock()
	for _, name := range man.Segments {
		if !r.held[name] {
			r.mu.Unlock()
			return fmt.Errorf("%w: %s", ErrReplicaGap, name)
		}
	}
	r.mu.Unlock()

	// Open newly shipped segments outside the lock (index validation and
	// mmap), reusing already open ones.
	opened := map[string]*segment{}
	r.mu.Lock()
	for name, g := range r.byName {
		opened[name] = g
	}
	r.mu.Unlock()
	segs := make([]*segment, 0, len(man.Segments))
	for _, name := range man.Segments {
		g := opened[name]
		if g == nil {
			var err error
			g, err = openSegment(r.opt.Dir, name, r.segStat, r.opt.VerifyOnOpen)
			if err != nil {
				return err
			}
			opened[name] = g
		}
		segs = append(segs, g)
	}
	der, err := rebuildDerived(segs, nil, man.Campaigns, r.opt.Variant)
	if err != nil {
		return err
	}

	// Commit point: manifest bytes land on disk exactly as shipped, then
	// the in-memory state swaps.
	if err := writeFileAtomic(r.opt.Dir, manifestName, c.Manifest); err != nil {
		return err
	}
	_ = writeFileAtomic(r.opt.Dir, replicaStatsName, c.Stats)

	live := make(map[string]bool, len(man.Segments))
	for _, name := range man.Segments {
		live[name] = true
	}
	var drop []string
	r.mu.Lock()
	byName := make(map[string]*segment, len(segs))
	for i, name := range man.Segments {
		byName[name] = segs[i]
	}
	r.byName = byName
	r.pub.alias = nil // der.aidx is this commit's own index
	r.pub.publish(segs, der.campaign, stats, der.aidx)
	r.applied = man.Seq
	for name := range r.held {
		if !live[name] {
			delete(r.held, name)
			drop = append(drop, name)
		}
	}
	r.mu.Unlock()
	r.appliedSeq.Store(man.Seq)
	r.commits.Add(1)

	// Only after the swap is visible do superseded files go away: a crash
	// at any earlier point leaves them held or sweepable, never a serving
	// state referencing a deleted file.
	for _, name := range drop {
		_ = os.Remove(filepath.Join(r.opt.Dir, name))
	}
	return nil
}

// writeFileAtomic writes name in dir through a tmp file, fsync and rename,
// then fsyncs the directory.
func writeFileAtomic(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// compile-time interface hygiene: both ends serve the same snapshots.
var _ interface{ Snapshot() *View } = (*Store)(nil)
var _ interface{ Snapshot() *View } = (*Replica)(nil)
