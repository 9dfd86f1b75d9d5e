package snmpv3fp_test

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"snmpv3fp"
	"snmpv3fp/internal/engineid"
	"snmpv3fp/internal/labsim"
	"snmpv3fp/internal/netsim"
	"snmpv3fp/internal/scanner"
)

// TestPublicAPIAgainstLoopbackAgent exercises the full public surface over a
// real UDP socket: probe an agent, classify and fingerprint its engine ID.
func TestPublicAPIAgainstLoopbackAgent(t *testing.T) {
	engID := engineid.NewMAC(2011, [6]byte{0x48, 0x46, 0xfb, 0x12, 0x34, 0x56})
	agent, err := labsim.Start(labsim.Config{
		OS:        labsim.CiscoIOS, // ImplicitV3 behaviour
		Community: "c",
		EngineID:  engID,
		Boots:     7,
		BootTime:  time.Now().Add(-42 * time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	tr, err := snmpv3fp.NewUDPTransport(agent.Addr().Port())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	obs, err := snmpv3fp.ProbeContext(context.Background(), tr, agent.Addr().Addr(), 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if obs.EngineBoots != 7 {
		t.Errorf("boots = %d", obs.EngineBoots)
	}
	if got := time.Since(obs.LastReboot()); got < 41*time.Hour || got > 43*time.Hour {
		t.Errorf("uptime = %v, want ~42h", got)
	}
	fp := snmpv3fp.FingerprintEngineID(obs.EngineID)
	if fp.Vendor != "Huawei" || fp.Source != "oui" {
		t.Errorf("fingerprint = %+v", fp)
	}
	id := snmpv3fp.ClassifyEngineID(obs.EngineID)
	if id.Enterprise != 2011 {
		t.Errorf("enterprise = %d", id.Enterprise)
	}
}

// TestPublicAPIEndToEndPipeline runs scan → validate → resolve → fingerprint
// over the simulated Internet through the public API only.
func TestPublicAPIEndToEndPipeline(t *testing.T) {
	w := netsim.Generate(netsim.TinyConfig(11))
	day := 24 * time.Hour

	scan := func(at time.Duration, seed int64) *snmpv3fp.Campaign {
		w.Clock.Set(w.Cfg.StartTime.Add(at))
		w.BeginScan()
		targets, err := snmpv3fp.NewPrefixTargets(w.ScanPrefixes4(), seed)
		if err != nil {
			t.Fatal(err)
		}
		c, err := snmpv3fp.ScanContext(context.Background(), w.NewTransport(), targets, snmpv3fp.ScanConfig{
			Rate: 50000, Clock: w.Clock, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1 := scan(15*day, 1)
	c2 := scan(21*day, 2)
	if len(c1.ByIP) == 0 || len(c2.ByIP) == 0 {
		t.Fatal("campaigns empty")
	}

	rep := snmpv3fp.Validate(c1, c2)
	if len(rep.Valid) == 0 {
		t.Fatal("nothing valid")
	}
	if rep.ValidEngineID < len(rep.Valid) {
		t.Error("valid engine ID count below final valid count")
	}

	sets := snmpv3fp.ResolveAliases(rep.Valid, snmpv3fp.DefaultAliasVariant)
	if len(sets) == 0 {
		t.Fatal("no alias sets")
	}
	// Verify against ground truth: every non-singleton set is one device.
	for _, s := range sets {
		if s.Singleton() {
			continue
		}
		first := w.DeviceAt(s.Members[0].IP)
		for _, m := range s.Members[1:] {
			if w.DeviceAt(m.IP) != first {
				t.Fatalf("alias set merges different devices")
			}
		}
	}
	// Fingerprint the biggest set.
	fp := snmpv3fp.FingerprintEngineID(sets[0].Members[0].EngineID)
	if fp.VendorLabel() == "" {
		t.Error("empty vendor label")
	}
}

func TestDiscoveryProbeIsParseable(t *testing.T) {
	wire, err := snmpv3fp.DiscoveryProbe(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	// The probe itself parses as an SNMPv3 message with empty engine ID.
	resp, err := snmpv3fp.ParseDiscoveryResponse(wire)
	if err != nil {
		// A request is not a report: ErrNotReport is acceptable; identifiers
		// must still be extracted by DecodeV3 paths. Just require that the
		// bytes are valid SNMPv3.
		if resp == nil {
			t.Fatalf("probe did not parse at all: %v", err)
		}
	}
}

func TestListTargetsEmpty(t *testing.T) {
	if _, err := snmpv3fp.NewListTargets(nil, 1); err == nil {
		t.Error("empty target list should error")
	}
}

// The UDP transport must satisfy the public Transport alias.
var _ snmpv3fp.Transport = (*scanner.UDPTransport)(nil)

// TestScanOverRealUDP drives the campaign-scale scanner against a live
// loopback agent through real sockets: the same code path an authorized
// Internet scan would use.
func TestScanOverRealUDP(t *testing.T) {
	agent, err := labsim.Start(labsim.Config{
		OS:        labsim.CiscoIOS,
		Community: "c",
		EngineID:  engineid.NewMAC(9, [6]byte{0x58, 0x8d, 0x09, 7, 7, 7}),
		Boots:     12,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	tr, err := snmpv3fp.NewUDPTransport(agent.Addr().Port())
	if err != nil {
		t.Fatal(err)
	}
	targets, err := snmpv3fp.NewListTargets([]netip.Addr{agent.Addr().Addr()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	campaign, err := snmpv3fp.ScanContext(context.Background(), tr, targets, snmpv3fp.ScanConfig{
		Rate: 100, Timeout: time.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := campaign.ByIP[agent.Addr().Addr()]
	if obs == nil {
		t.Fatal("agent not captured by the scan")
	}
	if obs.EngineBoots != 12 {
		t.Errorf("boots = %d", obs.EngineBoots)
	}
	if fp := snmpv3fp.FingerprintEngineID(obs.EngineID); fp.Vendor != "Cisco" {
		t.Errorf("vendor = %q", fp.Vendor)
	}
}
