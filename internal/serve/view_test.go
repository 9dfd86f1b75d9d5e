package serve

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"snmpv3fp/internal/core"
	"snmpv3fp/internal/store"
)

// scriptedSource hands out its views in order, repeating the last: a Source
// under a writer, with the interleaving written down. calls counts Snapshot
// calls.
type scriptedSource struct {
	views []*store.View
	calls atomic.Int64
}

func (s *scriptedSource) Snapshot() *store.View {
	n := int(s.calls.Add(1)) - 1
	return s.views[min(n, len(s.views)-1)]
}

// TestViewCachedUnderItsOwnVersion is the regression for the result cache
// keying a body by one snapshot's version and rendering it from another's:
// with the store moving between the two, version N served version N+1's
// body forever after.
func TestViewCachedUnderItsOwnVersion(t *testing.T) {
	st, _, _ := seedStore(t)
	old := st.Snapshot()
	idB := engID(2636, 0x11, 0x22, 0x33, 0x44)
	st.AddCampaign(mkCampaign(mkObs("192.0.2.3", idB, 6, 100+86400, t0.Add(48*time.Hour))))
	moved := st.Snapshot()
	if old.Stats().Version == moved.Stats().Version {
		t.Fatal("ingest did not move the version")
	}

	// The store moves right after the first request's first look. The third
	// request stands for a reader that took the old view before the move and
	// reaches the cache after it: whatever the first two rendered, the old
	// version's key must hold the old version's body.
	src := &scriptedSource{views: []*store.View{old, moved, old}}
	ts := httptest.NewServer(New(src))
	defer ts.Close()
	want := len(old.History(addr(t, "192.0.2.3")))
	for i := 0; i < 3; i++ {
		var out WireIP
		get(t, ts, "/v1/ip/192.0.2.3", 200, &out)
		if i == 2 && len(out.History) != want {
			t.Fatalf("version %d served a %d-sample history, want %d: another version's body was cached under it",
				old.Stats().Version, len(out.History), want)
		}
	}
}

// TestViewOnePerRequest: every endpoint takes exactly one snapshot per
// request, cache hit or miss. Source.Snapshot is the only way a request
// reaches the store, so with TestSnapshotDoesNotTakeStoreLock (store
// package) the request path is off the store mutex whenever a view is
// published.
func TestViewOnePerRequest(t *testing.T) {
	st, _, _ := seedStore(t)
	src := &scriptedSource{views: []*store.View{st.Snapshot()}}
	ts := httptest.NewServer(New(src))
	defer ts.Close()
	paths := []string{
		"/v1/ip/192.0.2.3",
		"/v1/reboots/192.0.2.3",
		"/v1/device/" + hex.EncodeToString(engID(9, 0xAA, 0xBB, 0xCC, 0xDD)),
		"/v1/vendors",
		"/v1/fusion",
		"/v1/stats",
	}
	for _, path := range paths {
		for _, temp := range []string{"cold", "warm"} {
			before := src.calls.Load()
			get(t, ts, path, 200, nil)
			if n := src.calls.Load() - before; n != 1 {
				t.Errorf("%s GET %s took %d snapshots, want 1", temp, path, n)
			}
		}
	}
}

// parkingCtx parks Ingest at its at-th batch boundary (Ingest consults
// ctx.Err before each batch) until release closes.
type parkingCtx struct {
	context.Context
	calls           atomic.Int64
	at              int64
	parked, release chan struct{}
}

func (p *parkingCtx) Err() error {
	if p.calls.Add(1) == p.at {
		close(p.parked)
		<-p.release
	}
	return nil
}

// TestViewStableAcrossIngest: a view taken before an Ingest renders the
// same /v1/ip, /v1/vendors and /v1/stats bytes before, during and after it;
// the live store serves those same bytes while the ingest is in flight and
// the whole campaign once it returned.
func TestViewStableAcrossIngest(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir(), FlushThreshold: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	campaign := func(day int) *core.Campaign {
		obs := make([]*core.Observation, 0, 700)
		for i := 0; i < 700; i++ {
			id := engID(9, byte(i), byte(i>>8), 3, 4)
			obs = append(obs, mkObs(fmt.Sprintf("192.0.%d.%d", i/250, i%250+1), id, 2, int64(1000+day*86400), t0.AddDate(0, 0, day)))
		}
		return mkCampaign(obs...)
	}
	for day := 0; day < 2; day++ {
		if _, err := st.Ingest(context.Background(), campaign(day)); err != nil {
			t.Fatal(err)
		}
	}
	paths := []string{"/v1/ip/192.0.0.1", "/v1/ip/192.0.1.7", "/v1/ip/192.0.2.200", "/v1/vendors", "/v1/stats"}
	// A fresh server per rendering, so /v1/stats' request counters agree.
	render := func(src Source) []byte {
		ts := httptest.NewServer(New(src))
		defer ts.Close()
		var all bytes.Buffer
		for _, path := range paths {
			all.Write(get(t, ts, path, 200, nil))
		}
		return all.Bytes()
	}
	pre := &scriptedSource{views: []*store.View{st.Snapshot()}}
	before := render(pre)

	ctx := &parkingCtx{Context: context.Background(), at: 3, parked: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := st.Ingest(ctx, campaign(2))
		done <- err
	}()
	<-ctx.parked // two batches and a flush of campaign 3 are in
	if during := render(pre); !bytes.Equal(during, before) {
		t.Fatalf("held view rendered differently during the ingest:\n%s\n%s", before, during)
	}
	if live := render(st); !bytes.Equal(live, before) {
		t.Fatalf("store served a half-ingested campaign:\n%s\n%s", before, live)
	}
	close(ctx.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if after := render(pre); !bytes.Equal(after, before) {
		t.Fatalf("held view rendered differently after the ingest:\n%s\n%s", before, after)
	}
	var stats WireStats
	ts := httptest.NewServer(New(st))
	defer ts.Close()
	get(t, ts, "/v1/stats", 200, &stats)
	if stats.Store.Campaigns != 3 || stats.Store.Ingested != 2100 {
		t.Fatalf("first read after Ingest returned lacks the campaign: %+v", stats.Store)
	}
}
