// Quickstart: probe one SNMPv3 agent over real UDP and print the three
// identifiers the paper exploits — engine ID, engine boots, engine time —
// plus the derived last-reboot time and vendor fingerprint.
//
// The example starts its own lab agent (a Cisco IOS model) on loopback, so
// it is fully self-contained:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"snmpv3fp"
	"snmpv3fp/internal/engineid"
	"snmpv3fp/internal/labsim"
)

func main() {
	// A Cisco IOS model with an SNMPv2c community configured — which, as
	// the paper's lab test shows, implicitly enables SNMPv3 discovery.
	agent, err := labsim.Start(labsim.Config{
		OS:        labsim.CiscoIOS,
		Community: "pass123",
		EngineID:  engineid.NewMAC(9, [6]byte{0x58, 0x8d, 0x09, 0x01, 0x02, 0x03}),
		Boots:     148,
		BootTime:  time.Now().Add(-116 * 24 * time.Hour),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer agent.Close()
	fmt.Printf("started %s\n\n", agent)

	// Probe it with a single unauthenticated discovery packet.
	tr, err := snmpv3fp.NewUDPTransport(agent.Addr().Port())
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()

	obs, err := snmpv3fp.ProbeContext(context.Background(), tr, agent.Addr().Addr(), 1, 2*time.Second)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("probed %v — no credentials supplied, yet it disclosed:\n", obs.IP)
	fmt.Printf("  engine ID:    0x%x\n", obs.EngineID)
	fmt.Printf("  engine boots: %d\n", obs.EngineBoots)
	fmt.Printf("  engine time:  %d s\n", obs.EngineTime)
	fmt.Printf("  last reboot:  %s\n", obs.LastReboot().Format(time.RFC3339))

	id := snmpv3fp.ClassifyEngineID(obs.EngineID)
	fp := snmpv3fp.FingerprintEngineID(obs.EngineID)
	fmt.Printf("  format:       %s (enterprise %d = %s)\n", id.Format, id.Enterprise, id.EnterpriseName())
	fmt.Printf("  vendor:       %s (via %s)\n", fp.VendorLabel(), fp.Source)
}
