package store

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"time"

	"snmpv3fp/internal/alias"
	"snmpv3fp/internal/core"
)

// equivIP is the i-th address of the equivalence world: mostly v4, every
// tenth v6.
func equivIP(i int) netip.Addr {
	if i%10 == 9 {
		return netip.MustParseAddr(fmt.Sprintf("2001:db8::%x", i))
	}
	return netip.AddrFrom4([4]byte{198, 51, byte(i / 250), byte(1 + i%250)})
}

// equivObs is address i's observation in campaign c, or nil when it is
// silent. Addresses come in threes that share an engine ID (alias sets),
// and the device kind cycles through every step of the validation
// pipeline: octets IDs under two enterprises (a third of the second kind
// flagged inconsistent), registered and unregistered MACs, routable and
// private IPv4 IDs, a body claimed under a second enterprise
// (promiscuous) and a missing engine ID. Every eleventh device reboots
// between campaigns.
func equivObs(i, c int) *core.Observation {
	if (i+c)%13 == 0 {
		return nil
	}
	g := i / 3
	body := []byte{byte(g >> 8), byte(g), 0x5a, byte(g % 7)}
	var id []byte
	switch g % 8 {
	case 0:
		id = engID(9, body...)
	case 1:
		id = engID(2636, body...)
	case 2:
		id = []byte{0x80, 0, 0, 9, 3, 0x00, 0x00, 0x0c, byte(g >> 8), byte(g), 1}
	case 3:
		id = []byte{0x80, 0, 0, 9, 3, 0x02, 0xaa, 0xbb, byte(g >> 8), byte(g), 1}
	case 4:
		id = []byte{0x80, 0, 0, 9, 1, 8, 8, byte(g >> 8), byte(g)}
	case 5:
		id = []byte{0x80, 0, 0, 9, 1, 10, 0, byte(g >> 8), byte(g)}
	case 6:
		// The body of device g-6, which is under enterprise 9: under
		// 2636 it makes that body promiscuous.
		g0 := g - 6
		id = engID(2636, byte(g0>>8), byte(g0), 0x5a, byte(g0%7))
	}
	boots := int64(1 + g%3)
	etime := int64(1000 + 86400*c)
	if g%11 == 0 {
		boots += int64(c)
		etime = int64(50 + c)
	}
	o := mkObs("192.0.2.1", id, boots, etime, t0.AddDate(0, 0, c))
	o.IP = equivIP(i)
	o.Inconsistent = g%8 == 1 && g%3 == 0
	return o
}

func equivCampaign(n, c int) *core.Campaign {
	var obs []*core.Observation
	for i := 0; i < n; i++ {
		if o := equivObs(i, c); o != nil {
			obs = append(obs, o)
		}
	}
	return mkCampaign(obs...)
}

// assertSameDerived compares what rebuildDerived reconstructs — alias
// sets, vendors, the derived counts — and every address's history.
func assertSameDerived(t *testing.T, what string, want, got *View, n int) {
	t.Helper()
	if g, w := mustJSON(t, got.AliasSets()), mustJSON(t, want.AliasSets()); g != w {
		t.Fatalf("%s: alias sets diverge:\n got %.400s\nwant %.400s", what, g, w)
	}
	if g, w := mustJSON(t, got.Vendors()), mustJSON(t, want.Vendors()); g != w {
		t.Fatalf("%s: vendors diverge:\n got %s\nwant %s", what, g, w)
	}
	derivedStats := func(s Stats) Stats {
		return Stats{
			Campaigns: s.Campaigns, Ingested: s.Ingested, TrackedIPs: s.TrackedIPs,
			CurrentResponsive: s.CurrentResponsive, Devices: s.Devices,
			AliasSets: s.AliasSets, Vendors: s.Vendors,
		}
	}
	if g, w := derivedStats(got.Stats()), derivedStats(want.Stats()); g != w {
		t.Fatalf("%s: stats diverge:\n got %+v\nwant %+v", what, g, w)
	}
	for i := 0; i < n; i++ {
		ip := equivIP(i)
		if g, w := mustJSON(t, got.History(ip)), mustJSON(t, want.History(ip)); g != w {
			t.Fatalf("%s: history(%v) diverges:\n got %s\nwant %s", what, ip, g, w)
		}
	}
}

// TestRecoveryEquivalence builds a store three ways — Ingest; Add out of
// address order with superseding re-adds, so the replay arrives out of seq
// order; Ingest plus protocol evidence — and checks that every recovery
// path rebuilds what live ingest derived: a reopen that replays the WAL, a
// reopen from segments alone, and a replica synced from the reopened store.
func TestRecoveryEquivalence(t *testing.T) {
	const n, campaigns = 400, 3
	ctx := context.Background()
	builds := []struct {
		name  string
		build func(t *testing.T, s *Store)
	}{
		{"ingest", func(t *testing.T, s *Store) {
			for c := 1; c <= campaigns; c++ {
				if _, err := s.Ingest(ctx, equivCampaign(n, c)); err != nil {
					t.Fatal(err)
				}
				if c == 2 {
					// One segment spanning campaigns 1–2 under the flush
					// segments of campaign 3.
					if err := s.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}},
		{"add-out-of-order", func(t *testing.T, s *Store) {
			for c := 1; c <= campaigns; c++ {
				if _, err := s.BeginCampaign(); err != nil {
					t.Fatal(err)
				}
				for i := n - 1; i >= 0; i-- {
					if o := equivObs(i, c); o != nil {
						if err := s.Add(o); err != nil {
							t.Fatal(err)
						}
					}
				}
				// Superseding re-adds: a reboot for every seventeenth
				// address, and back again for every thirty-fourth.
				for i := 0; i < n; i += 17 {
					o := equivObs(i, c)
					if o == nil {
						continue
					}
					re := *o
					re.EngineBoots += 5
					if i%34 == 0 {
						re = *o
					}
					if err := s.Add(&re); err != nil {
						t.Fatal(err)
					}
				}
			}
		}},
		{"ingest-evidence", func(t *testing.T, s *Store) {
			for c := 1; c <= campaigns; c++ {
				if _, err := s.Ingest(ctx, equivCampaign(n, c)); err != nil {
					t.Fatal(err)
				}
				var ev []EvidenceSample
				for i := 0; i < n; i += 2 {
					ev = append(ev, EvidenceSample{
						IP: equivIP(i), Key: fmt.Sprintf("ts:%d", i/6),
						ReceivedAt: t0.AddDate(0, 0, c), Packets: 1,
					})
				}
				slices.SortFunc(ev, func(a, b EvidenceSample) int { return a.IP.Compare(b.IP) })
				if err := s.IngestEvidence(ctx, "icmp-ts", ev); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			dir := t.TempDir()
			opt := Options{FlushThreshold: 64, DisableCompaction: true}
			s := mustOpenDir(t, dir, opt)
			b.build(t, s)
			want := s.Snapshot()
			if len(want.AliasSets()) < 10 {
				t.Fatalf("only %d alias sets: the world exercises too little", len(want.AliasSets()))
			}
			if b.name == "add-out-of-order" {
				// The premise: the latest campaign's samples, in the
				// order recovery scans them, are out of seq order.
				var seqs []uint64
				for _, sm := range allSamples(s) {
					if sm.Campaign == campaigns && sm.Protocol == "" {
						seqs = append(seqs, sm.Seq)
					}
				}
				if slices.IsSorted(seqs) {
					t.Fatal("replay is in seq order; the sort branch is not exercised")
				}
			}

			// No Close: the unflushed tail comes back from the WAL.
			r := mustOpenDir(t, dir, opt)
			assertSameDerived(t, "WAL replay", want, r.Snapshot(), n)
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			r = mustOpenDir(t, dir, opt)
			defer r.Close()
			assertSameDerived(t, "segments only", want, r.Snapshot(), n)

			rep, err := OpenReplica(ReplicaOptions{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer rep.Close()
			syncReplica(t, rep, startRepl(t, r))
			waitCaughtUp(t, r, rep)
			assertSameDerived(t, "replica", want, rep.Snapshot(), n)
		})
	}
}

// TestRebuildDerivedAllocs bounds recovery's allocations per replayed
// sample over a fixed lazy segment of 2 campaigns × 2,000 addresses. A
// replay that allocates per sample (an observation, an engine-ID copy, a
// merge record, map keys) lands at several per sample; the lean replay
// allocates per chunk, per distinct engine ID and body, and per alias set.
func TestRebuildDerivedAllocs(t *testing.T) {
	const n = 2000
	var samples []Sample
	seq := uint64(0)
	for c := 1; c <= 2; c++ {
		cam := equivCampaign(n, c)
		for _, ip := range cam.SortedIPs() {
			seq++
			samples = append(samples, sampleFrom(cam.ByIP[ip], uint64(c), seq))
		}
	}
	g := writeAndOpen(t, buildSegment(samples), true, false, nil)
	per := testing.AllocsPerRun(5, func() {
		if _, err := rebuildDerived([]*segment{g}, nil, 0, alias.Default); err != nil {
			t.Fatal(err)
		}
	}) / float64(len(samples))
	t.Logf("%.3f allocations per replayed sample", per)
	if per > 1.0 {
		t.Fatalf("rebuildDerived makes %.3f allocations per replayed sample, want at most 1.0", per)
	}
}

// TestMemtableReserveGeometric: a generation filled by 256-sample batches
// reallocates O(log n) times. Growing by exactly the request copied the
// whole memtable on every batch.
func TestMemtableReserveGeometric(t *testing.T) {
	m := newMemtable()
	reallocs := 0
	for b := 0; b < 16; b++ {
		before := cap(m.samples)
		m.reserve(256)
		if cap(m.samples) != before {
			reallocs++
		}
		if free := cap(m.samples) - len(m.samples); free < 256 {
			t.Fatalf("reserve(256) left %d free slots", free)
		}
		for i := 0; i < 256; i++ {
			m.add(Sample{Seq: uint64(b*256 + i)})
		}
	}
	if reallocs > 5 {
		t.Fatalf("16 reserves of 256 reallocated %d times, want at most 5", reallocs)
	}
}

// TestAppendWALSampleInPlace: the in-place record equals the framed form
// of a separately encoded payload, and appending it allocates nothing.
func TestAppendWALSampleInPlace(t *testing.T) {
	for _, sm := range []Sample{
		{IP: netip.MustParseAddr("192.0.2.9"), Campaign: 3, Seq: 17, EngineID: engID(9, 1, 2, 3, 4),
			Boots: 2, EngineTime: 99, ReceivedAt: t0, Packets: 1},
		{IP: netip.MustParseAddr("2001:db8::1"), Campaign: 1 << 40, Seq: 1 << 50, Protocol: "icmp-ts",
			EngineID: bytes.Repeat([]byte{7}, 300), Boots: -1, ReceivedAt: t0.Add(time.Nanosecond), Inconsistent: true},
	} {
		payload := append([]byte{walRecSample}, appendSampleEnc(nil, &sm)...)
		want := appendWALRecord([]byte("tail"), payload)
		if got := appendWALSample([]byte("tail"), &sm); !bytes.Equal(got, want) {
			t.Fatalf("in-place record differs:\n got %x\nwant %x", got, want)
		}
		buf := make([]byte, 0, 1024)
		if allocs := testing.AllocsPerRun(100, func() { buf = appendWALSample(buf[:0], &sm) }); allocs != 0 {
			t.Fatalf("appendWALSample allocates %.1f times per record, want 0", allocs)
		}
	}
}
