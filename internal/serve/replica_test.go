package serve

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"snmpv3fp/internal/store"
)

// TestResultCacheInvalidation is the cache-coherence regression: two
// identical GETs with an ingest between them must observe different state.
// The cache key carries the store's view generation, so the second request
// misses and re-encodes from a fresh snapshot.
func TestResultCacheInvalidation(t *testing.T) {
	st, _, _ := seedStore(t)
	srv := New(st)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first := get(t, ts, "/v1/ip/192.0.2.3", 200, nil)
	second := get(t, ts, "/v1/ip/192.0.2.3", 200, nil)
	if !bytes.Equal(first, second) {
		t.Fatalf("identical GETs with no ingest diverge:\n%s\n%s", first, second)
	}
	if srv.results.Hits() == 0 {
		t.Fatal("second identical GET was not a cache hit")
	}

	// Ingest a third campaign touching the same IP; the next GET must see it.
	idB := engID(2636, 0x11, 0x22, 0x33, 0x44)
	mustIngest(t, st, mkCampaign(mkObs("192.0.2.3", idB, 6, 100+86400, t0.Add(48*time.Hour))))
	third := get(t, ts, "/v1/ip/192.0.2.3", 200, nil)
	if bytes.Equal(second, third) {
		t.Fatalf("GET after ingest served stale cached bytes: %s", third)
	}
	var out WireIP
	get(t, ts, "/v1/ip/192.0.2.3", 200, &out)
	if len(out.History) != 3 {
		t.Fatalf("post-ingest history has %d samples, want 3", len(out.History))
	}
}

// severedConn cuts the byte stream after a fixed read budget, simulating a
// replica dying partway through the initial segment ship.
type severedConn struct {
	net.Conn
	mu     sync.Mutex
	budget int
}

var errSevered = errors.New("connection severed by test")

func (c *severedConn) Read(p []byte) (int, error) {
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

// syncLoop runs r.SyncLoop against addr until ctx ends; the cleanup joins
// it, so it is not still writing into a TempDir being removed.
func syncLoop(t *testing.T, ctx context.Context, cancel context.CancelFunc, r *store.Replica, addr string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = r.SyncLoop(ctx, addr)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// TestReplicaSmoke is the end-to-end read scale-out contract behind
// `make replica-smoke`: one durable ingesting primary, two replicas syncing
// over loopback TCP — one of which dies mid-ship and reconnects — and every
// /v1/* endpoint, /v1/stats included, answering byte-identically on all
// three servers once the replicas catch up.
func TestReplicaSmoke(t *testing.T) {
	idA := engID(9, 0xAA, 0xBB, 0xCC, 0xDD)
	idB := engID(2636, 0x11, 0x22, 0x33, 0x44)
	prim, err := store.Open(store.Options{Dir: t.TempDir(), FlushThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	day := 24 * time.Hour
	for n := 0; n < 3; n++ {
		mustIngest(t, prim, mkCampaign(
			mkObs("192.0.2.1", idA, 2, 1000+86400*int64(n), t0.Add(time.Duration(n)*day)),
			mkObs("192.0.2.2", idA, 2, 1000+86400*int64(n), t0.Add(time.Duration(n)*day)),
			mkObs("192.0.2.3", idB, 5+int64(n), 500, t0.Add(time.Duration(n)*day)),
		))
	}
	// Everything into segments: the memtable is not shipped.
	if err := prim.Flush(); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() { _ = prim.ServeReplication(ln) }()
	addr := ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())

	// Replica 1: healthy sync from the start.
	r1, err := store.OpenReplica(store.ReplicaOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	syncLoop(t, ctx, cancel, r1, addr)

	// Replica 2: first connection severed mid-ship, then a clean reconnect.
	r2, err := store.OpenReplica(store.ReplicaOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Sync(ctx, &severedConn{Conn: raw, budget: 500}); err == nil {
		t.Fatal("severed sync reported success")
	}
	syncLoop(t, ctx, cancel, r2, addr)

	want := prim.Snapshot().Stats().Version
	deadline := time.Now().Add(15 * time.Second)
	for r1.Snapshot().Stats().Version != want || r2.Snapshot().Stats().Version != want {
		if time.Now().After(deadline) {
			t.Fatalf("replicas never caught up to version %d (r1 %d, r2 %d)",
				want, r1.Snapshot().Stats().Version, r2.Snapshot().Stats().Version)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Three servers, one Source each. The same request sequence runs against
	// all three — ending with /v1/stats — so the per-endpoint serve counters
	// agree too and every body can be compared byte-for-byte.
	servers := map[string]*httptest.Server{
		"primary":  httptest.NewServer(New(prim).Handler()),
		"replica1": httptest.NewServer(New(r1).Handler()),
		"replica2": httptest.NewServer(New(r2).Handler()),
	}
	for _, ts := range servers {
		defer ts.Close()
	}
	paths := []string{
		"/v1/ip/192.0.2.1",
		"/v1/ip/192.0.2.3",
		"/v1/device/" + hex.EncodeToString(idA),
		"/v1/vendors",
		"/v1/reboots/192.0.2.3",
		"/v1/fusion",
		"/v1/stats",
	}
	for _, path := range paths {
		ref := get(t, servers["primary"], path, 200, nil)
		for _, name := range []string{"replica1", "replica2"} {
			got := get(t, servers[name], path, 200, nil)
			if !bytes.Equal(ref, got) {
				t.Fatalf("GET %s diverges on %s:\nprimary %s\n%s %s", path, name, ref, name, got)
			}
		}
	}
}
