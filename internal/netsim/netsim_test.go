package netsim

import (
	"net/netip"
	"testing"
	"time"

	"snmpv3fp/internal/engineid"
	"snmpv3fp/internal/snmp"
)

func tinyWorld(t testing.TB) *World {
	t.Helper()
	return Generate(TinyConfig(1))
}

func TestGenerateDeterministic(t *testing.T) {
	w1 := Generate(TinyConfig(7))
	w2 := Generate(TinyConfig(7))
	if len(w1.Devices) != len(w2.Devices) || len(w1.ASes) != len(w2.ASes) {
		t.Fatalf("sizes differ: %d/%d devices, %d/%d ASes",
			len(w1.Devices), len(w2.Devices), len(w1.ASes), len(w2.ASes))
	}
	for i := range w1.Devices {
		a, b := w1.Devices[i], w2.Devices[i]
		if string(a.EngineID) != string(b.EngineID) || a.Boots != b.Boots || !a.BootTime.Equal(b.BootTime) {
			t.Fatalf("device %d differs between same-seed worlds", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	w1 := Generate(TinyConfig(1))
	w2 := Generate(TinyConfig(2))
	same := 0
	n := len(w1.Devices)
	if len(w2.Devices) < n {
		n = len(w2.Devices)
	}
	for i := 0; i < n; i++ {
		if string(w1.Devices[i].EngineID) == string(w2.Devices[i].EngineID) {
			same++
		}
	}
	if same > n/10 {
		t.Errorf("%d/%d identical engine IDs across seeds", same, n)
	}
}

func TestWorldPopulationShape(t *testing.T) {
	w := tinyWorld(t)
	var routers, servers, cpe, responders, dualStack, v6only int
	for _, d := range w.Devices {
		switch d.Class {
		case ClassRouter:
			routers++
			if len(d.V4) > 0 && len(d.V6) > 0 {
				dualStack++
			}
			if len(d.V4) == 0 && len(d.V6) > 0 {
				v6only++
			}
		case ClassServer:
			servers++
		case ClassCPE:
			cpe++
		}
		if d.Responds {
			responders++
		}
	}
	if routers == 0 || servers == 0 || cpe == 0 {
		t.Fatalf("missing a class: %d routers %d servers %d cpe", routers, servers, cpe)
	}
	if dualStack == 0 || v6only == 0 {
		t.Errorf("address-family mix missing: %d dual-stack, %d v6-only routers", dualStack, v6only)
	}
	if responders < len(w.Devices)/3 {
		t.Errorf("only %d/%d devices respond", responders, len(w.Devices))
	}
}

func TestAllAddressesRegistered(t *testing.T) {
	w := tinyWorld(t)
	for _, d := range w.Devices {
		for _, a := range d.AllAddrs() {
			if w.DeviceAt(a) != d {
				t.Fatalf("address %v not mapped to its device", a)
			}
		}
	}
}

func TestEngineIDsMatchVendors(t *testing.T) {
	w := tinyWorld(t)
	checked := 0
	for _, d := range w.Devices {
		p := engineid.Classify(d.EngineID)
		if p.Format == engineid.FormatMAC {
			vendor, src := p.Vendor()
			if src == "oui" && vendor != d.Profile.Vendor {
				t.Fatalf("device vendor %q but OUI says %q", d.Profile.Vendor, vendor)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Errorf("only %d MAC engine IDs in tiny world", checked)
	}
}

func TestDiscoveryExchange(t *testing.T) {
	w := tinyWorld(t)
	probe, _ := snmp.EncodeDiscoveryRequest(1, 1)
	now := w.Cfg.StartTime.Add(15 * 24 * time.Hour)
	answered := 0
	scheduledSeen := 0
	for _, d := range w.Devices {
		if !d.Responds || d.Quirk != QuirkNone || len(d.V4) == 0 {
			continue
		}
		addr := d.V4[0]
		if !w.RespondsAt(addr) {
			continue
		}
		replies := w.HandleSNMP(addr, probe, now)
		if len(replies) == 0 {
			continue // per-scan loss
		}
		resp, err := snmp.ParseDiscoveryResponse(replies[0])
		if err != nil {
			t.Fatalf("device %d: bad reply: %v", d.ID, err)
		}
		if string(resp.EngineID) != string(d.EngineID) {
			t.Fatalf("device %d: engine ID mismatch", d.ID)
		}
		wantBoots, wantBootTime := d.scheduledBoot(now)
		if d.RebootPeriod > 0 && wantBoots > d.Boots {
			scheduledSeen++
		}
		if resp.EngineBoots != wantBoots {
			t.Fatalf("device %d: boots %d != %d", d.ID, resp.EngineBoots, wantBoots)
		}
		wantET := int64(now.Sub(wantBootTime) / time.Second)
		if resp.EngineTime != wantET {
			t.Fatalf("device %d: engine time %d != %d", d.ID, resp.EngineTime, wantET)
		}
		answered++
	}
	if answered < 50 {
		t.Errorf("only %d clean devices answered", answered)
	}
	if scheduledSeen == 0 {
		t.Error("no recurring-reboot device exercised")
	}
}

func TestScheduledReboots(t *testing.T) {
	w := tinyWorld(t)
	for _, d := range w.Devices {
		if d.RebootPeriod <= 0 {
			continue
		}
		// Boots advance by exactly one per elapsed period.
		b0, t0 := d.scheduledBoot(d.BootTime.Add(d.RebootPeriod / 2))
		b1, t1 := d.scheduledBoot(d.BootTime.Add(d.RebootPeriod + d.RebootPeriod/2))
		if b0 != d.Boots || !t0.Equal(d.BootTime) {
			t.Fatalf("pre-period state changed: %d %v", b0, t0)
		}
		if b1 != d.Boots+1 || !t1.Equal(d.BootTime.Add(d.RebootPeriod)) {
			t.Fatalf("post-period state wrong: %d %v", b1, t1)
		}
		return
	}
	t.Error("no device with a reboot schedule")
}

func TestAliasConsistencyAcrossInterfaces(t *testing.T) {
	// The paper's central observation: every interface of a device returns
	// the same engine ID.
	w := tinyWorld(t)
	probe, _ := snmp.EncodeDiscoveryRequest(2, 2)
	now := w.Cfg.StartTime.Add(15 * 24 * time.Hour)
	for _, d := range w.Devices {
		if !d.Responds || d.Quirk != QuirkNone || len(d.AllAddrs()) < 2 {
			continue
		}
		var ids []string
		for _, addr := range d.AllAddrs() {
			replies := w.HandleSNMP(addr, probe, now)
			if len(replies) == 0 {
				continue
			}
			resp, err := snmp.ParseDiscoveryResponse(replies[0])
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, string(resp.EngineID))
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] != ids[0] {
				t.Fatalf("device %d: interfaces disagree on engine ID", d.ID)
			}
		}
	}
}

func TestQuirkBehaviours(t *testing.T) {
	w := tinyWorld(t)
	probe, _ := snmp.EncodeDiscoveryRequest(3, 3)
	scan1 := w.Cfg.StartTime.Add(15 * 24 * time.Hour)
	scan2 := w.Cfg.StartTime.Add(21 * 24 * time.Hour)

	find := func(q Quirk) *Device {
		for _, d := range w.Devices {
			if d.Quirk == q && d.Responds && len(d.V4) > 0 && w.RespondsAt(d.V4[0]) &&
				!w.coin(d.V4[0], uint64(0xA110+w.scanEpoch), lossProb) {
				return d
			}
		}
		return nil
	}

	if d := find(QuirkChurn); d != nil {
		r1, _ := snmp.ParseDiscoveryResponse(w.HandleSNMP(d.V4[0], probe, scan1)[0])
		r2, _ := snmp.ParseDiscoveryResponse(w.HandleSNMP(d.V4[0], probe, scan2)[0])
		if string(r1.EngineID) == string(r2.EngineID) {
			t.Error("churned IP should change engine ID between campaigns")
		}
	} else {
		t.Error("no churn device found")
	}

	if d := find(QuirkReboot); d != nil {
		r1, _ := snmp.ParseDiscoveryResponse(w.HandleSNMP(d.V4[0], probe, scan1)[0])
		r2, _ := snmp.ParseDiscoveryResponse(w.HandleSNMP(d.V4[0], probe, scan2)[0])
		if r2.EngineBoots != r1.EngineBoots+1 {
			t.Errorf("reboot quirk: boots %d then %d", r1.EngineBoots, r2.EngineBoots)
		}
	} else {
		t.Error("no reboot device found")
	}

	if d := find(QuirkZeroBootsTime); d != nil {
		r, _ := snmp.ParseDiscoveryResponse(w.HandleSNMP(d.V4[0], probe, scan1)[0])
		if r.EngineBoots != 0 || r.EngineTime != 0 {
			t.Errorf("zero quirk: boots=%d time=%d", r.EngineBoots, r.EngineTime)
		}
	} else {
		t.Error("no zero-boots device found")
	}

	if d := find(QuirkDrift); d != nil {
		r1, _ := snmp.ParseDiscoveryResponse(w.HandleSNMP(d.V4[0], probe, scan1)[0])
		r2, _ := snmp.ParseDiscoveryResponse(w.HandleSNMP(d.V4[0], probe, scan2)[0])
		reboot1 := scan1.Add(-time.Duration(r1.EngineTime) * time.Second)
		reboot2 := scan2.Add(-time.Duration(r2.EngineTime) * time.Second)
		delta := reboot1.Sub(reboot2)
		if delta < 0 {
			delta = -delta
		}
		if delta <= 10*time.Second {
			t.Errorf("drift quirk: last-reboot delta only %v", delta)
		}
	} else {
		t.Error("no drift device found")
	}

	if d := find(QuirkMultiResponse); d != nil {
		if n := len(w.HandleSNMP(d.V4[0], probe, scan1)); n < 2 {
			t.Errorf("multi-response quirk returned %d packets", n)
		}
	}
}

func TestBugPopulationSharesEngineID(t *testing.T) {
	w := tinyWorld(t)
	bug := 0
	for _, d := range w.Devices {
		if len(d.EngineID) == 12 && d.EngineID[4] == 3 && d.EngineID[3] == 9 {
			allZero := true
			for _, b := range d.EngineID[5:] {
				if b != 0 {
					allZero = false
				}
			}
			if allZero {
				bug++
			}
		}
	}
	if bug != w.Cfg.BugDevices {
		t.Errorf("bug population %d, want %d", bug, w.Cfg.BugDevices)
	}
}

func TestSilentAddresses(t *testing.T) {
	w := tinyWorld(t)
	probe, _ := snmp.EncodeDiscoveryRequest(4, 4)
	now := w.Cfg.StartTime
	// Unallocated address in an allocated prefix.
	prefixes := w.ScanPrefixes4()
	if len(prefixes) == 0 {
		t.Fatal("no prefixes")
	}
	silent := 0
	for i := uint64(0); i < 200; i++ {
		addr := prefixes[0].Addr()
		if w.DeviceAt(addr) == nil {
			if got := w.HandleSNMP(addr, probe, now); got != nil {
				t.Fatalf("unallocated %v answered", addr)
			}
			silent++
		}
	}
	// Garbage payloads are dropped.
	for _, d := range w.Devices {
		if d.Responds && len(d.V4) > 0 {
			if got := w.HandleSNMP(d.V4[0], []byte("garbage"), now); got != nil {
				t.Fatal("garbage payload answered")
			}
			// v2c with unknown community is dropped too.
			v2, _ := snmp.NewGetRequest(snmp.V2c, "public", 1, snmp.OIDSysDescr).Encode()
			if got := w.HandleSNMP(d.V4[0], v2, now); got != nil {
				t.Fatal("v2c with community answered in the wild")
			}
			break
		}
	}
	_ = silent
}

func TestIPIDSchemes(t *testing.T) {
	w := tinyWorld(t)
	now := w.Cfg.StartTime
	// Find devices whose first two interfaces both answer ICMP-style
	// probing (a per-interface reachability coin applies).
	reachable2 := func(d *Device) bool {
		if !d.Responds || len(d.V4) < 2 {
			return false
		}
		_, ok0 := w.IPIDSample(d.V4[0], now, 0)
		_, ok1 := w.IPIDSample(d.V4[1], now, 0)
		return ok0 && ok1
	}
	var shared, perIF *Device
	for _, d := range w.Devices {
		if !reachable2(d) {
			continue
		}
		switch d.Profile.IPID {
		case IPIDShared:
			if shared == nil {
				shared = d
			}
		case IPIDPerInterface:
			if perIF == nil {
				perIF = d
			}
		}
	}
	if shared == nil {
		t.Fatal("no shared-counter device with 2+ reachable interfaces")
	}
	// Shared counter: interleaved samples from two interfaces are close and
	// monotonic.
	a1, ok1 := w.IPIDSample(shared.V4[0], now, 0)
	b1, ok2 := w.IPIDSample(shared.V4[1], now, 1)
	a2, ok3 := w.IPIDSample(shared.V4[0], now.Add(time.Second), 2)
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("reachable interface stopped answering")
	}
	// Allow for 16-bit wrap on busy counters by comparing deltas.
	d1 := int32(b1) - int32(a1)
	d2 := int32(a2) - int32(b1)
	if d1 < 0 {
		d1 += 1 << 16
	}
	if d2 < 0 {
		d2 += 1 << 16
	}
	if d1 > 1<<15 || d2 > 1<<15 {
		t.Errorf("shared counter not monotonic: %d %d %d", a1, b1, a2)
	}
	if perIF != nil {
		x, _ := w.IPIDSample(perIF.V4[0], now, 0)
		y, _ := w.IPIDSample(perIF.V4[1], now, 0)
		if x == y {
			t.Error("per-interface counters should differ across interfaces")
		}
	}
	if _, ok := w.IPIDSample(netip.MustParseAddr("203.0.113.77"), now, 0); ok {
		t.Error("unallocated address returned an IP-ID")
	}
}

func TestTTLAndBanner(t *testing.T) {
	w := tinyWorld(t)
	sawTTL := map[int]bool{}
	openBanners := 0
	for _, d := range w.Devices {
		if !d.Responds || len(d.V4) == 0 {
			continue
		}
		if ttl, ok := w.TTLSample(d.V4[0]); ok {
			sawTTL[ttl] = true
		}
		if _, open := w.TCPBanner(d.V4[0]); open {
			openBanners++
		}
	}
	if !sawTTL[64] || !sawTTL[255] {
		t.Errorf("iTTL variety missing: %v", sawTTL)
	}
	if openBanners == 0 {
		t.Error("no open TCP banners in the world")
	}
}

func TestPTRRecords(t *testing.T) {
	w := tinyWorld(t)
	withPTR := 0
	for _, d := range w.Devices {
		if !d.Router() {
			continue
		}
		for _, a := range d.V4 {
			if name := w.PTR(a); name != "" {
				withPTR++
			}
		}
	}
	if withPTR < 20 {
		t.Errorf("only %d router interfaces have PTR records", withPTR)
	}
	if w.PTR(netip.MustParseAddr("203.0.113.99")) != "" {
		t.Error("unallocated address has a PTR record")
	}
}

func TestHitlistAndPrefixes(t *testing.T) {
	w := tinyWorld(t)
	hl := w.HitlistV6()
	if len(hl) < w.Cfg.HitlistFiller/2 {
		t.Errorf("hitlist too small: %d", len(hl))
	}
	responsive := 0
	for _, a := range hl {
		if w.RespondsAt(a) {
			responsive++
		}
	}
	if responsive == 0 {
		t.Error("hitlist has no responsive entries")
	}
	if responsive > len(hl)/2 {
		t.Errorf("hitlist suspiciously responsive: %d/%d", responsive, len(hl))
	}
	if len(w.ScanPrefixes4()) < len(w.ASes) {
		t.Errorf("expected at least one IPv4 prefix per AS")
	}
}

func TestTCPTimestampSharedClock(t *testing.T) {
	w := tinyWorld(t)
	now := w.Cfg.StartTime.Add(20 * 24 * time.Hour)
	later := now.Add(time.Hour)
	checked := 0
	for _, d := range w.Devices {
		if !d.Responds || len(d.V4) < 2 {
			continue
		}
		v1a, ok1 := w.TCPTimestamp(d.V4[0], now)
		v1b, ok2 := w.TCPTimestamp(d.V4[1], now)
		if !ok1 || !ok2 {
			continue // closed TCP posture
		}
		// All interfaces share one clock: identical values at one instant.
		if v1a != v1b {
			t.Fatalf("device %d: interfaces disagree: %d vs %d", d.ID, v1a, v1b)
		}
		// The clock ticks at ~1 kHz.
		v2, _ := w.TCPTimestamp(d.V4[0], later)
		delta := int64(v2) - int64(v1a)
		if delta < 3_500_000 || delta > 3_700_000 {
			t.Fatalf("device %d: 1h advanced the clock by %d ticks", d.ID, delta)
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no multi-interface device with open TCP in this seed")
	}
}

func TestTCPTimestampClosedForSilent(t *testing.T) {
	w := tinyWorld(t)
	if _, ok := w.TCPTimestamp(netip.MustParseAddr("203.0.113.99"), w.Cfg.StartTime); ok {
		t.Error("unallocated address has TCP timestamps")
	}
}

// TestGenerateFullPrefixTerminates: with too little slack an AS prefix fills
// before every device is placed. Generation must still finish, carving the
// AS another prefix, with every address unique, registered to its device and
// inside one of its AS's prefixes.
func TestGenerateFullPrefixTerminates(t *testing.T) {
	tiny, dflt := TinyConfig(7), DefaultConfig(7)
	tiny.PrefixSlack, dflt.PrefixSlack = 1, 2
	for _, cfg := range []Config{tiny, dflt} {
		done := make(chan *World, 1)
		go func() { done <- Generate(cfg) }()
		var w *World
		select {
		case w = <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("Generate with PrefixSlack %d did not return", cfg.PrefixSlack)
		}
		grown := 0
		for _, a := range w.ASes {
			if len(a.V4Prefixes) > 1 {
				grown++
			}
		}
		if grown == 0 {
			t.Fatalf("PrefixSlack %d: no AS needed a second prefix; the test no longer fills one", cfg.PrefixSlack)
		}
		seen := map[netip.Addr]bool{}
		for _, d := range w.Devices {
			prefixes := w.ASByNumber(d.ASN).V4Prefixes
			for _, addr := range d.AllAddrs() {
				if seen[addr] {
					t.Fatalf("address %v assigned twice", addr)
				}
				seen[addr] = true
				if w.DeviceAt(addr) != d {
					t.Fatalf("address %v not mapped to its device", addr)
				}
				if !addr.Is4() {
					continue
				}
				inside := false
				for _, p := range prefixes {
					inside = inside || p.Contains(addr)
				}
				if !inside {
					t.Fatalf("device %d: %v outside its AS's prefixes %v", d.ID, addr, prefixes)
				}
			}
		}
	}
}
