package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"snmpv3fp/internal/wire"
)

// Primary side of segment-shipping replication. Every manifest commit —
// recovery baseline, flush, compaction, close — publishes a replState; each
// connected replica's shipper goroutine walks the published states, sending
// the segment files the replica lacks and then the commit. Segment files
// are immutable once renamed into place, so shipping needs no coordination
// with the flusher or compactor beyond tolerating deletion: a compaction
// can remove a superseded file while a shipper reads it, in which case the
// shipper abandons that state and re-snapshots — the newer state no longer
// lists the file.

// replState is one committed (manifest, stats, segments) triple.
type replState struct {
	// version is a publish counter, monotonically increasing; shippers use
	// it to detect that a new state superseded the one they were shipping.
	version uint64
	// manifest is the rendered manifest file (JSON line + crc line) —
	// exactly the bytes the replica writes to its own MANIFEST.
	manifest []byte
	// stats is the primary's Stats JSON captured at the same publish;
	// replicas serve it verbatim.
	stats []byte
	// segs is the manifest's live segment list.
	segs []string
	// seq is the manifest's durable-seq horizon.
	seq uint64
}

// replPub is the publish/subscribe point between the store's mutators and
// the shipper goroutines. Publishing replaces the state and closes the
// broadcast channel; shippers re-read the state whenever the channel they
// hold closes.
type replPub struct {
	mu  sync.Mutex
	cur replState
	ch  chan struct{}

	commits     atomic.Uint64
	subscribers atomic.Int64
}

func newReplPub() *replPub { return &replPub{ch: make(chan struct{})} }

func (p *replPub) publish(st replState) {
	p.mu.Lock()
	st.version = p.cur.version + 1
	p.cur = st
	close(p.ch)
	p.ch = make(chan struct{})
	p.mu.Unlock()
	p.commits.Add(1)
}

// state returns the current state and the channel that closes when a newer
// one is published.
func (p *replPub) state() (replState, <-chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cur, p.ch
}

// publishRepl captures the committed manifest plus the live Stats and hands
// them to the replication subscribers. Called after every successful
// writeManifest, never under s.mu.
func (s *Store) publishRepl(man *manifest) {
	if s.repl == nil {
		return
	}
	rendered, err := renderManifest(man)
	if err != nil {
		return
	}
	s.mu.Lock()
	st := s.statsLocked()
	s.mu.Unlock()
	statsJSON, err := json.Marshal(&st)
	if err != nil {
		return
	}
	s.repl.publish(replState{
		manifest: rendered,
		stats:    statsJSON,
		segs:     append([]string(nil), man.Segments...),
		seq:      man.Seq,
	})
}

// ErrNotDurable is returned by ServeReplication on an in-memory store:
// replication ships segment files, which only durable stores have.
var ErrNotDurable = errors.New("store: replication requires a durable store")

// ServeReplication accepts replica connections on ln and ships them
// segments and manifest commits until ln is closed (whose Accept error it
// returns). Each connection is served by its own goroutine and lives until
// the replica disconnects.
func (s *Store) ServeReplication(ln net.Listener) error {
	if s.repl == nil {
		return ErrNotDurable
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer conn.Close()
			_ = s.serveReplConn(conn)
		}()
	}
}

// serveReplConn runs one replica session: Hello, then ship states forever.
func (s *Store) serveReplConn(conn net.Conn) error {
	s.repl.subscribers.Add(1)
	defer s.repl.subscribers.Add(-1)

	typ, body, err := wire.ReadFrame(conn)
	if err != nil {
		return err
	}
	if typ != replFrameHello {
		return fmt.Errorf("store: replication: expected hello, got frame %d", typ)
	}
	hello, err := parseReplHello(body)
	if err != nil {
		return err
	}
	if hello.Version != replProtoVersion {
		return fmt.Errorf("store: replication: protocol version %d, want %d", hello.Version, replProtoVersion)
	}
	held := make(map[string]bool, len(hello.Held))
	for _, name := range hello.Held {
		held[name] = true
	}

	// The replica sends Ack frames after each apply; draining them doubles
	// as disconnect detection while the shipper waits for new states.
	connDead := make(chan struct{})
	go func() {
		defer close(connDead)
		for {
			typ, body, err := wire.ReadFrame(conn)
			if err != nil || typ != replFrameAck {
				return
			}
			if _, err := parseReplAck(body); err != nil {
				return
			}
		}
	}()

	sent := uint64(0)
	for {
		st, ch := s.repl.state()
		if st.version == sent {
			select {
			case <-ch:
				continue
			case <-connDead:
				return nil
			}
		}
		ok, err := s.shipState(conn, st, held)
		if err != nil {
			return err
		}
		if ok {
			sent = st.version
		}
		// !ok: a listed segment file vanished under the shipper — a
		// compaction superseded this state. Loop to pick up the newer one.
	}
}

// shipState sends every segment of st the replica lacks, then the commit.
// Returns false (and no error) when a segment file disappeared mid-ship:
// the state is stale and the caller should re-snapshot.
func (s *Store) shipState(conn net.Conn, st replState, held map[string]bool) (bool, error) {
	for _, name := range st.segs {
		if held[name] {
			continue
		}
		switch err := s.shipSegment(conn, name); {
		case err == nil:
			held[name] = true
		case os.IsNotExist(err):
			return false, nil
		default:
			return false, err
		}
	}
	commit := appendReplCommit(nil, replCommit{Manifest: st.manifest, Stats: st.stats})
	if err := wire.WriteFrame(conn, replFrameCommit, commit); err != nil {
		return false, err
	}
	return true, nil
}

// shipSegment streams one immutable segment file: header with size and
// whole-file crc32c, the bytes in chunks, then SegDone. Reads the file in
// one go — segments are bounded by the flush threshold and compaction
// output, well within memory.
func (s *Store) shipSegment(conn net.Conn, name string) error {
	data, err := os.ReadFile(filepath.Join(s.d.dir, name))
	if err != nil {
		return err
	}
	hdr := appendReplSeg(nil, replSeg{
		Name: name,
		Size: uint64(len(data)),
		CRC:  crc32.Checksum(data, castagnoli),
	})
	if err := wire.WriteFrame(conn, replFrameSeg, hdr); err != nil {
		return err
	}
	for off := 0; off < len(data); off += replChunkSize {
		end := off + replChunkSize
		if end > len(data) {
			end = len(data)
		}
		if err := wire.WriteFrame(conn, replFrameChunk, data[off:end]); err != nil {
			return err
		}
	}
	return wire.WriteFrame(conn, replFrameSegDone, nil)
}
