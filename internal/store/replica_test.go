package store

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// startRepl serves replication for s on a loopback listener and returns its
// address. The listener dies with the test.
func startRepl(t *testing.T, s *Store) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() { _ = s.ServeReplication(ln) }()
	return ln.Addr().String()
}

// syncReplica dials addr and runs r.Sync until the test ends; the cleanup
// joins it, so it is not still writing into a TempDir being removed.
func syncReplica(t *testing.T, r *Replica, addr string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = r.Sync(ctx, conn)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// waitCaughtUp polls until the replica's view version matches the
// primary's, i.e. the latest publish applied.
func waitCaughtUp(t *testing.T, s *Store, r *Replica) {
	t.Helper()
	want := s.Snapshot().Stats().Version
	deadline := time.Now().Add(10 * time.Second)
	for {
		if r.Snapshot().Stats().Version == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never reached primary version %d (at %d, applied seq %d)",
				want, r.Snapshot().Stats().Version, r.appliedSeq.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertViewsIdentical compares every query surface of the two snapshots as
// JSON — the store-level form of the /v1/* byte-identity contract.
func assertViewsIdentical(t *testing.T, p, r *View, ips []string) {
	t.Helper()
	if got, want := mustJSON(t, r.Stats()), mustJSON(t, p.Stats()); got != want {
		t.Fatalf("stats diverge:\nreplica %s\nprimary %s", got, want)
	}
	if got, want := mustJSON(t, r.AliasSets()), mustJSON(t, p.AliasSets()); got != want {
		t.Fatalf("alias sets diverge:\nreplica %s\nprimary %s", got, want)
	}
	if got, want := mustJSON(t, r.Vendors()), mustJSON(t, p.Vendors()); got != want {
		t.Fatalf("vendors diverge:\nreplica %s\nprimary %s", got, want)
	}
	for _, ip := range ips {
		addr := mkObs(ip, engID(9, 1), 0, 0, t0).IP
		if got, want := mustJSON(t, r.History(addr)), mustJSON(t, p.History(addr)); got != want {
			t.Fatalf("history(%s) diverges:\nreplica %s\nprimary %s", ip, got, want)
		}
		if got, want := mustJSON(t, r.Timeline(addr)), mustJSON(t, p.Timeline(addr)); got != want {
			t.Fatalf("timeline(%s) diverges", ip)
		}
	}
}

// replWorkload ingests n campaigns over a fixed IP set and flushes each, so
// the whole state lives in segments (a caught-up replica can then be
// byte-identical). Returns the IPs.
func replWorkload(t *testing.T, s *Store, campaigns int) []string {
	t.Helper()
	idA := engID(9, 1, 2, 3, 4)
	idB := engID(2636, 9, 9, 9, 9)
	var ips []string
	for i := 0; i < 6; i++ {
		ips = append(ips, fmt.Sprintf("192.0.2.%d", i+1))
	}
	day := int64(86400)
	for n := 1; n <= campaigns; n++ {
		if _, err := s.BeginCampaign(); err != nil {
			t.Fatal(err)
		}
		for i, ip := range ips {
			id := idA
			if i >= 4 {
				id = idB
			}
			o := mkObs(ip, id, 2, 1000+day*int64(n), t0.AddDate(0, 0, n))
			if err := s.Add(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return ips
}

// TestReplicaCatchUp: a replica connecting after the fact converges to the
// primary's exact state — stats, alias sets, vendors, histories.
func TestReplicaCatchUp(t *testing.T) {
	s := mustOpenDir(t, t.TempDir(), Options{FlushThreshold: 4, DisableCompaction: true})
	defer s.Close()
	ips := replWorkload(t, s, 3)
	addr := startRepl(t, s)

	r, err := OpenReplica(ReplicaOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	syncReplica(t, r, addr)
	waitCaughtUp(t, s, r)
	assertViewsIdentical(t, s.Snapshot(), r.Snapshot(), ips)
	if lag := r.primarySeq.Load() - r.appliedSeq.Load(); lag != 0 {
		t.Fatalf("caught-up replica reports lag %d", lag)
	}
}

// TestReplicaFollowsCompaction races compaction against the shipper: a
// segment shipped to the replica and then superseded by a concurrent merge
// must not resurrect — after the dust settles the replica's directory holds
// exactly the primary manifest's segment set.
func TestReplicaFollowsCompaction(t *testing.T) {
	s := mustOpenDir(t, t.TempDir(), Options{FlushThreshold: 4, DisableCompaction: true})
	defer s.Close()
	ips := replWorkload(t, s, 4)
	addr := startRepl(t, s)

	rdir := t.TempDir()
	r, err := OpenReplica(ReplicaOptions{Dir: rdir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	syncReplica(t, r, addr)

	// Compact while the replica is syncing; more campaigns while it drains.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = s.Compact()
	}()
	replWorkload(t, s, 2)
	wg.Wait()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, s, r)
	assertViewsIdentical(t, s.Snapshot(), r.Snapshot(), ips)

	s.mu.Lock()
	want := map[string]bool{}
	for _, g := range s.segs {
		want[g.file] = true
	}
	s.mu.Unlock()
	for _, name := range listExt(t, rdir, ".seg") {
		if !want[name] {
			t.Fatalf("superseded segment %s resurrected in replica dir (want %v)", name, want)
		}
		delete(want, name)
	}
	if len(want) != 0 {
		t.Fatalf("replica dir missing segments %v", want)
	}
}

// flakyConn severs the connection after writing n bytes — the mid-ship
// failure the reconnect path must absorb.
type flakyConn struct {
	net.Conn
	mu     sync.Mutex
	budget int
}

var errSevered = errors.New("connection severed by test")

func (c *flakyConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.budget <= 0 {
		c.mu.Unlock()
		c.Conn.Close()
		return 0, errSevered
	}
	if len(p) > c.budget {
		p = p[:c.budget]
	}
	c.mu.Unlock()
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.budget -= n
	c.mu.Unlock()
	return n, err
}

// TestReplicaKillMidShipReconnect severs the stream partway through the
// initial catch-up, reconnects, and requires full convergence — with no
// partial download surviving as state.
func TestReplicaKillMidShipReconnect(t *testing.T) {
	s := mustOpenDir(t, t.TempDir(), Options{FlushThreshold: 4, DisableCompaction: true})
	defer s.Close()
	ips := replWorkload(t, s, 4)
	addr := startRepl(t, s)

	rdir := t.TempDir()
	r, err := OpenReplica(ReplicaOptions{Dir: rdir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// First attempt: die after 600 bytes of the primary's stream —
	// mid-segment, before any commit.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	err = r.Sync(context.Background(), &flakyConn{Conn: raw, budget: 600})
	if err == nil {
		t.Fatal("severed sync reported success")
	}
	if r.commits.Load() != 0 {
		t.Fatalf("commit applied from a severed stream")
	}

	// Reconnect and converge.
	syncReplica(t, r, addr)
	waitCaughtUp(t, s, r)
	assertViewsIdentical(t, s.Snapshot(), r.Snapshot(), ips)
}

// TestReplicaRestartServesPersistedState: a replica reopened offline serves
// the last applied commit — manifest, segments and shipped stats all come
// back from its own directory.
func TestReplicaRestartServesPersistedState(t *testing.T) {
	s := mustOpenDir(t, t.TempDir(), Options{FlushThreshold: 4, DisableCompaction: true})
	defer s.Close()
	ips := replWorkload(t, s, 3)
	addr := startRepl(t, s)

	rdir := t.TempDir()
	r, err := OpenReplica(ReplicaOptions{Dir: rdir})
	if err != nil {
		t.Fatal(err)
	}
	syncReplica(t, r, addr)
	waitCaughtUp(t, s, r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := OpenReplica(ReplicaOptions{Dir: rdir, VerifyOnOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	assertViewsIdentical(t, s.Snapshot(), r2.Snapshot(), ips)
}

// TestReplicaGapDetection: a commit listing a segment that was never
// shipped must be refused, not half-applied.
func TestReplicaGapDetection(t *testing.T) {
	r, err := OpenReplica(ReplicaOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	man := &manifest{Version: 1, Campaigns: 3, Seq: 42, Segments: []string{"000007.seg"}}
	rendered, err := renderManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	err = r.applyCommit(replCommit{Manifest: rendered, Stats: []byte(`{}`)})
	if !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("applyCommit with unshipped segment = %v, want ErrReplicaGap", err)
	}
	if r.commits.Load() != 0 || r.appliedSeq.Load() != 0 {
		t.Fatal("gap commit partially applied")
	}
	if _, err := os.Stat(r.opt.Dir + "/" + manifestName); !os.IsNotExist(err) {
		t.Fatal("gap commit wrote a manifest")
	}
}
