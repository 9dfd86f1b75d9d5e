package vantage

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"snmpv3fp/internal/netsim"
	"snmpv3fp/internal/obs"
	"snmpv3fp/internal/scanner"
	"snmpv3fp/internal/store"
	"snmpv3fp/internal/wire"
)

// testSpec is the campaign every distributed test reconstructs: a tiny
// hostile world with retries, multiple workers and every fault knob lit.
func testSpec(totalShards int) CampaignSpec {
	return CampaignSpec{
		CampaignSeed: 42,
		SimSeed:      3,
		ScanDay:      15,
		ScanEpochs:   1,
		Rate:         5000,
		Workers:      4,
		Retries:      1,
		TotalShards:  totalShards,
		Faults:       netsim.FullHostileProfile(),
	}
}

// reference runs the campaign unsharded in-process: the byte-identity
// oracle every distributed merge is held to.
func reference(t *testing.T, spec CampaignSpec) *scanner.Result {
	t.Helper()
	spec.TotalShards = 1
	res, err := SimRunner{}.RunLease(context.Background(), spec, Lease{Shard: 0})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// encodeResult flattens a Result through the wire encoding, giving the
// literal bytes two results must share to count as byte-identical.
func encodeResult(res *scanner.Result) []byte {
	b := AppendShardDone(nil, ShardDone{
		Sent: res.Sent, Retried: res.Retried, OffPath: res.OffPath,
		ProbeMsgID: res.ProbeMsgID, Started: res.Started, Finished: res.Finished,
	})
	return AppendPartial(b, Partial{Responses: res.Responses})
}

// runDistributed runs one campaign over real loopback TCP: a coordinator,
// then the given nodes as goroutines (nodes that die are not restarted —
// include a healthy node when using kill hooks).
func runDistributed(t *testing.T, cfg CoordConfig, nodes []NodeConfig) *Outcome {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	coord := NewCoordinator(cfg)
	go coord.Serve(l)
	for _, nc := range nodes {
		go func(nc NodeConfig) {
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				return
			}
			RunNode(ctx, conn, nc)
		}(nc)
	}
	out, err := coord.Wait(ctx)
	if err != nil {
		t.Fatalf("campaign failed: %v", err)
	}
	return out
}

func assertByteIdentical(t *testing.T, want, got *scanner.Result, label string) {
	t.Helper()
	if !bytes.Equal(encodeResult(want), encodeResult(got)) {
		t.Errorf("%s: merged result not byte-identical to single-process reference: "+
			"responses %d vs %d, sent %d vs %d, retried %d vs %d, offpath %d vs %d, window [%v,%v] vs [%v,%v]",
			label, len(want.Responses), len(got.Responses), want.Sent, got.Sent,
			want.Retried, got.Retried, want.OffPath, got.OffPath,
			want.Started, want.Finished, got.Started, got.Finished)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: merged result differs structurally from reference", label)
	}
}

// TestDistributedMatchesSingleProcess is the merge invariant across vantage
// counts: for every shard count the acceptance matrix names, the campaign
// merged from per-vantage partials streamed over real TCP must be
// byte-identical to the unsharded single-process scan.
func TestDistributedMatchesSingleProcess(t *testing.T) {
	want := reference(t, testSpec(1))
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			nodes := []NodeConfig{{Name: "v0"}, {Name: "v1"}}
			if shards == 1 {
				nodes = nodes[:1]
			}
			out := runDistributed(t, CoordConfig{Spec: testSpec(shards)}, nodes)
			assertByteIdentical(t, want, out.Merged, fmt.Sprintf("shards=%d", shards))
			if len(out.Campaign.ByIP) == 0 {
				t.Error("merged campaign observed no responders")
			}
		})
	}
}

// TestReLeaseDeterminism is the acceptance matrix's failure half: one
// vantage dies at every shard boundary and mid-shard (after streaming a
// partial chunk), the coordinator re-leases the orphaned work to the
// surviving vantage, and the merged campaign must still be byte-identical
// to the single-process reference.
func TestReLeaseDeterminism(t *testing.T) {
	const shards = 4
	want := reference(t, testSpec(1))
	kills := []NodeConfig{
		{Name: "dies-mid-shard-1", KillAfterPartials: 1},
		{Name: "dies-mid-shard-2", KillAfterPartials: 2},
	}
	for b := 1; b < shards; b++ {
		kills = append(kills, NodeConfig{Name: fmt.Sprintf("dies-after-shard-%d", b), KillAfterShards: b})
	}
	for _, kill := range kills {
		kill := kill
		t.Run(kill.Name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			reg := obs.NewRegistry()
			coord := NewCoordinator(CoordConfig{Spec: testSpec(shards), Obs: reg})
			go coord.Serve(l)
			// The doomed vantage runs alone first, so its death always
			// orphans leased work; the replacement connects only after the
			// death, exactly like an operator restarting a dead node.
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			if err := RunNode(ctx, conn, kill); err != ErrKilled {
				t.Fatalf("kill hook: got %v, want ErrKilled", err)
			}
			// The coordinator leases work to the dead connection (nobody
			// else is registered) and must notice the death and revoke it;
			// only then does the replacement arrive, so the re-lease path
			// is exercised on every kill point.
			for deadline := time.Now().Add(30 * time.Second); reg.Value("snmpfp_coord_releases_total") < 1; {
				if time.Now().After(deadline) {
					t.Fatal("coordinator never revoked the dead vantage's lease")
				}
				time.Sleep(5 * time.Millisecond)
			}
			go func() {
				conn, err := net.Dial("tcp", l.Addr().String())
				if err != nil {
					return
				}
				RunNode(ctx, conn, NodeConfig{Name: "survivor"})
			}()
			out, err := coord.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			assertByteIdentical(t, want, out.Merged, kill.Name)
		})
	}
}

// TestHeartbeatTimeoutReLease covers the silent-death path: a vantage that
// takes a lease and then hangs without closing its socket (what SIGKILL
// plus a live NAT entry looks like) must be detected by heartbeat silence
// and its shard re-leased.
func TestHeartbeatTimeoutReLease(t *testing.T) {
	want := reference(t, testSpec(2))
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reg := obs.NewRegistry()
	coord := NewCoordinator(CoordConfig{Spec: testSpec(2), Obs: reg, HeartbeatTTL: 400 * time.Millisecond})
	go coord.Serve(l)

	// The hung vantage: completes the handshake, accepts a lease, then
	// goes silent forever without closing the connection.
	hung, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer hung.Close()
	if err := wire.WriteFrame(hung, frameHello, AppendHello(nil, Hello{Name: "hung", Version: protocolVersion})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // campaign spec, then a lease
		if _, _, err := wire.ReadFrame(hung); err != nil {
			t.Fatal(err)
		}
	}

	go func() {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return
		}
		// Heartbeats go out only while a lease runs, and a lease of this
		// campaign runs for well under 100 ms on a fast machine.
		RunNode(ctx, conn, NodeConfig{Name: "healthy", HeartbeatEvery: 2 * time.Millisecond})
	}()
	out, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertByteIdentical(t, want, out.Merged, "heartbeat-timeout")
	if reg.Value("snmpfp_coord_releases_total") < 1 {
		t.Error("heartbeat silence never triggered a re-lease")
	}
	if reg.Value("snmpfp_coord_heartbeats_total") < 1 {
		t.Error("no heartbeats recorded from the healthy vantage")
	}
}

// TestViewpointAgreement runs a two-viewpoint campaign: the merged result
// must stay pinned to the reference viewpoint while the agreement report
// captures the second viewpoint's overlap.
func TestViewpointAgreement(t *testing.T) {
	want := reference(t, testSpec(2))
	out := runDistributed(t,
		CoordConfig{Spec: testSpec(2), Viewpoints: 2},
		[]NodeConfig{{Name: "v0"}, {Name: "v1"}})
	assertByteIdentical(t, want, out.Merged, "viewpoints=2")
	if len(out.Agreement) != 2 {
		t.Fatalf("agreement report has %d entries, want 2", len(out.Agreement))
	}
	ref := out.Agreement[0]
	if ref.Viewpoint != 0 || ref.Responders != len(out.Campaign.ByIP) || ref.SharedWithRef != ref.Responders {
		t.Errorf("reference viewpoint report inconsistent: %+v vs %d responders", ref, len(out.Campaign.ByIP))
	}
	alt := out.Agreement[1]
	if alt.Responders == 0 {
		t.Error("second viewpoint observed nothing")
	}
	if alt.SharedWithRef > alt.Responders {
		t.Errorf("second viewpoint shares %d of %d responders", alt.SharedWithRef, alt.Responders)
	}
}

// TestLateVantageGetsCampaignDone: a vantage connecting after the campaign
// finished must be handed the spec and an immediate CampaignDone, not a
// hang.
func TestLateVantageGetsCampaignDone(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	coord := NewCoordinator(CoordConfig{Spec: testSpec(1)})
	go coord.Serve(l)
	go func() {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return
		}
		RunNode(ctx, conn, NodeConfig{Name: "worker"})
	}()
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := RunNode(ctx, conn, NodeConfig{Name: "late"}); err != nil {
		t.Fatalf("late vantage: %v", err)
	}
}

// TestCoordinatorStoreIngest attaches a durable store: the merged campaign
// must stream into it at the merge barrier, and reopening the directory
// must recover every observation — distributed scans end in the same
// durable state a local scan would.
func TestCoordinatorStoreIngest(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	out := runDistributed(t,
		CoordConfig{Spec: testSpec(2), Store: st},
		[]NodeConfig{{Name: "v0"}, {Name: "v1"}})
	if out.CampaignSeq == 0 {
		t.Fatal("campaign was never ingested into the store")
	}
	stats := st.Snapshot().Stats()
	if got, want := int(stats.Ingested), len(out.Campaign.ByIP); got != want {
		t.Errorf("store ingested %d samples, campaign has %d responders", got, want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, want := int(re.Snapshot().Stats().Ingested), len(out.Campaign.ByIP); got != want {
		t.Errorf("recovered store has %d samples, campaign has %d responders", got, want)
	}
}
