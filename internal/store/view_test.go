package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"snmpv3fp/internal/core"
)

// gateCtx is a context whose Err — which Ingest consults before each batch —
// parks at its parkAt-th call until release closes, and reports
// context.Canceled from its cancelAt-th call on. It puts a test at a known
// point inside an Ingest without hooks in the store.
type gateCtx struct {
	context.Context
	mu               sync.Mutex
	calls            int
	parkAt, cancelAt int
	parked, release  chan struct{}
}

func newGateCtx(parkAt, cancelAt int) *gateCtx {
	return &gateCtx{Context: context.Background(), parkAt: parkAt, cancelAt: cancelAt,
		parked: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateCtx) Err() error {
	g.mu.Lock()
	g.calls++
	n := g.calls
	g.mu.Unlock()
	if n == g.parkAt {
		close(g.parked)
		<-g.release
	}
	if g.cancelAt > 0 && n >= g.cancelAt {
		return context.Canceled
	}
	return nil
}

// wideCampaign is n responsive IPs, each its own device.
func wideCampaign(n int, day int) *core.Campaign {
	obs := make([]*core.Observation, 0, n)
	for i := 0; i < n; i++ {
		id := engID(9, byte(i), byte(i>>8), 3, 4)
		obs = append(obs, mkObs(fmt.Sprintf("10.9.%d.%d", i/250, i%250+1), id, 2, int64(1000+day*86400), t0.AddDate(0, 0, day)))
	}
	return mkCampaign(obs...)
}

// TestSnapshotCampaignAtomic: a campaign becomes visible when Ingest
// returns. While it is in flight Snapshot keeps handing out the
// pre-campaign view — whether one was published when the ingest began or
// not — and the first Snapshot after the return has the whole campaign.
func TestSnapshotCampaignAtomic(t *testing.T) {
	for _, published := range []bool{true, false} {
		t.Run(fmt.Sprintf("published=%v", published), func(t *testing.T) {
			s := mustOpenDir(t, t.TempDir(), Options{FlushThreshold: 300})
			defer s.Close()
			if _, err := s.Ingest(context.Background(), wideCampaign(700, 0)); err != nil {
				t.Fatal(err)
			}
			if !published {
				// A flush install outside an ingest withdraws the view.
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				if s.pub.cur.Load() != nil {
					t.Fatal("flush outside an ingest left the view published")
				}
			}
			ctx := newGateCtx(3, 0) // parks with two batches of campaign 2 in
			done := make(chan error, 1)
			go func() {
				_, err := s.Ingest(ctx, wideCampaign(700, 1))
				done <- err
			}()
			<-ctx.parked
			mid := s.Snapshot()
			if st := mid.Stats(); st.Campaigns != 1 || st.Ingested != 700 || mid.Campaigns() != 1 {
				t.Fatalf("mid-ingest snapshot shows the campaign in flight: %+v", st)
			}
			if s.Snapshot() != mid {
				t.Fatal("mid-ingest snapshots are not one view")
			}
			close(ctx.release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			after := s.pub.cur.Load()
			if after == nil || after != s.Snapshot() {
				t.Fatal("Ingest returned without publishing")
			}
			if st := after.Stats(); st.Campaigns != 2 || st.Ingested != 1400 || st.AliasSets != 700 || len(after.AliasSets()) != 700 {
				t.Fatalf("first snapshot after Ingest lacks the campaign: %+v", st)
			}
			// The old view is still the old store.
			if st := mid.Stats(); st.Campaigns != 1 || len(mid.AliasSets()) != 0 {
				t.Fatalf("pre-campaign view changed under its holder: %+v", st)
			}
			if h := mid.History(after.AliasSets()[0].IPs[0]); len(h) != 1 {
				t.Fatalf("pre-campaign view sees %d samples, want 1", len(h))
			}
		})
	}
}

// TestSnapshotCancelledIngestPublishes: every return path of Ingest
// publishes; a cancelled one leaves its partial campaign visible.
func TestSnapshotCancelledIngestPublishes(t *testing.T) {
	s := mustOpen(t, Options{})
	defer s.Close()
	if _, err := s.Ingest(context.Background(), wideCampaign(600, 0)); err != nil {
		t.Fatal(err)
	}
	before := s.Snapshot()
	n, err := s.Ingest(newGateCtx(0, 2), wideCampaign(600, 1)) // one batch, then cancelled
	if !errors.Is(err, context.Canceled) || n != 2 {
		t.Fatalf("Ingest = %d, %v; want campaign 2 cancelled", n, err)
	}
	v := s.pub.cur.Load()
	if v == nil || v == before {
		t.Fatal("cancelled Ingest returned without publishing")
	}
	if st := v.Stats(); st.Campaigns != 2 || st.Ingested != 600+ingestCheckEvery || st.CurrentResponsive != ingestCheckEvery {
		t.Fatalf("partial campaign not visible: %+v", st)
	}
	// So does one that fails outright.
	s.Close()
	if _, err := s.Ingest(context.Background(), wideCampaign(10, 2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest on a closed store: %v", err)
	}
	if s.pub.cur.Load() == nil {
		t.Fatal("failed Ingest withdrew the view")
	}
}

// TestSnapshotVersions: versions never decrease across every kind of
// publication, publishing is not a mutation (no bump a manifest commit would
// not carry), and Add keeps read-your-writes.
func TestSnapshotVersions(t *testing.T) {
	s := mustOpenDir(t, t.TempDir(), Options{FlushThreshold: 100, DisableCompaction: true})
	defer s.Close()
	var last uint64
	step := func(what string) *View {
		t.Helper()
		v := s.Snapshot()
		s.mu.Lock()
		live := s.version
		s.mu.Unlock()
		if got := v.Stats().Version; got < last || got != live {
			t.Fatalf("after %s: view version %d, store version %d, previous view %d", what, got, live, last)
		}
		if again := s.Snapshot(); again != v {
			t.Fatalf("after %s: a second Snapshot built another view", what)
		}
		last = v.Stats().Version
		return v
	}
	step("open")
	for c := 0; c < 3; c++ {
		if _, err := s.Ingest(context.Background(), wideCampaign(250, c)); err != nil {
			t.Fatal(err)
		}
		step("ingest")
	}
	o := mkObs("10.9.200.1", engID(9, 1, 1, 1, 1), 2, 1000, t0)
	if err := s.Add(o); err != nil {
		t.Fatal(err)
	}
	if got, ok := step("add").Latest(o.IP); !ok || got.Campaign != 3 {
		t.Fatalf("Add not visible to the next Snapshot: %+v %v", got, ok)
	}
	if err := s.IngestEvidence(context.Background(), "icmp-ts", []EvidenceSample{mkEvidence("10.9.200.1", "k", t0)}); err != nil {
		t.Fatal(err)
	}
	if h := step("evidence").HistoryProtocol(o.IP, "icmp-ts"); len(h) != 1 {
		t.Fatalf("evidence not visible to the next Snapshot: %v", h)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	flushed := step("flush")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	compacted := step("compact")
	// Neither install touched the alias index: its rendering is shared, not
	// rebuilt.
	if flushed.aliasView != compacted.aliasView {
		t.Fatal("flush/compaction install re-materialized an unchanged alias index")
	}
	if _, err := s.BeginCampaign(); err != nil {
		t.Fatal(err)
	}
	if v := step("begin"); v.Campaigns() != 4 || v.aliasView == compacted.aliasView {
		t.Fatalf("direct BeginCampaign not published: campaigns %d", v.Campaigns())
	}
}

// TestSnapshotDoesNotTakeStoreLock: with a view published, Snapshot and
// every View query complete while another goroutine holds the store mutex —
// readers are off the writer's lock. (serve reaches a Store through
// Source.Snapshot alone; TestViewOnePerRequest pins that side.)
func TestSnapshotDoesNotTakeStoreLock(t *testing.T) {
	s := mustOpenDir(t, t.TempDir(), Options{FlushThreshold: 100})
	defer s.Close()
	if _, err := s.Ingest(context.Background(), wideCampaign(250, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(context.Background(), wideCampaign(250, 1)); err != nil {
		t.Fatal(err)
	}
	ip := s.Snapshot().AliasSets()[0].IPs[0]

	s.mu.Lock()
	served := make(chan error, 1)
	go func() {
		v := s.Snapshot()
		if _, ok := v.Latest(ip); !ok || v.Timeline(ip) == nil || len(v.Vendors()) == 0 || v.Stats().Ingested != 500 {
			served <- fmt.Errorf("published view answered wrongly")
			return
		}
		served <- nil
	}()
	select {
	case err := <-served:
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		s.mu.Unlock()
		t.Fatal("Snapshot waited for the store mutex although a view was published")
	}
}

// TestReplicaFollowsIngest: publication adds no version a manifest commit
// does not carry — a replica of a primary that ingested whole campaigns
// (publishing at each return) reaches the primary's exact version and
// state, and its Snapshot never takes a lock either.
func TestReplicaFollowsIngest(t *testing.T) {
	s := mustOpenDir(t, t.TempDir(), Options{FlushThreshold: 100, DisableCompaction: true})
	defer s.Close()
	addr := startRepl(t, s)
	r, err := OpenReplica(ReplicaOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v := r.Snapshot(); v == nil || v.Stats().Ingested != 0 {
		t.Fatalf("fresh replica serves %+v", v)
	}
	syncReplica(t, r, addr)
	var ips []string
	for c := 0; c < 3; c++ {
		camp := wideCampaign(250, c)
		if _, err := s.Ingest(context.Background(), camp); err != nil {
			t.Fatal(err)
		}
		ips = ips[:0]
		for _, ip := range camp.SortedIPs()[:5] {
			ips = append(ips, ip.String())
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, s, r)
	r.mu.Lock()
	v := r.Snapshot()
	r.mu.Unlock()
	assertViewsIdentical(t, s.Snapshot(), v, ips)
}

// TestReplicaCloseJoinsSync: once Close returns no Sync is running — nothing
// writes to the directory afterwards — and later Syncs are refused.
func TestReplicaCloseJoinsSync(t *testing.T) {
	s := mustOpenDir(t, t.TempDir(), Options{FlushThreshold: 4, DisableCompaction: true})
	defer s.Close()
	replWorkload(t, s, 3)
	addr := startRepl(t, s)
	r, err := OpenReplica(ReplicaOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	returned := make(chan error, 1)
	go func() { returned <- r.SyncLoop(context.Background(), addr) }()
	waitCaughtUp(t, s, r)
	r.Close()
	r.mu.Lock()
	inFlight := len(r.conns)
	r.mu.Unlock()
	if inFlight != 0 {
		t.Fatalf("%d Sync calls still in flight after Close", inFlight)
	}
	select {
	case err := <-returned:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("SyncLoop after Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SyncLoop outlived Close")
	}
}
