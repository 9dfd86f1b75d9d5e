// Monitoring example: the Section 6.3 follow-up workflow through the
// public API — repeated campaigns against the same population, tracked
// into per-device reboot/availability timelines.
//
//	go run ./examples/monitoring
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"snmpv3fp"
	"snmpv3fp/internal/netsim"
	"snmpv3fp/internal/scanner"
)

func main() {
	w := netsim.Generate(netsim.TinyConfig(21))
	day := 24 * time.Hour

	scan := func(at time.Duration, seed int64) *snmpv3fp.Campaign {
		w.Clock.Set(w.Cfg.StartTime.Add(at))
		w.BeginScan()
		targets, err := scanner.NewPrefixSpace(w.ScanPrefixes4(), seed)
		if err != nil {
			log.Fatal(err)
		}
		c, err := snmpv3fp.ScanContext(context.Background(), w.NewTransport(), targets, snmpv3fp.ScanConfig{
			Rate: 50000, Clock: w.Clock, Seed: seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		return c
	}

	// Six weekly campaigns.
	var campaigns []*snmpv3fp.Campaign
	for week := 0; week < 6; week++ {
		at := time.Duration(15+7*week) * day
		c := scan(at, int64(100+week))
		campaigns = append(campaigns, c)
		fmt.Printf("campaign %d (+%dd): %d responsive IPs\n", week+1, 15+7*week, len(c.ByIP))
	}

	timelines := snmpv3fp.Track(campaigns)
	sum := snmpv3fp.SummarizeTimelines(timelines)
	fmt.Printf("\ntracked %d IPs over %d campaigns\n", sum.Tracked, len(campaigns))
	fmt.Printf("  restart events:     %d (%d distinct IPs)\n", sum.RebootEvents, sum.RebootedIPs)
	fmt.Printf("  identity changes:   %d\n", sum.IdentityChanges)
	fmt.Printf("  availability gaps:  %d\n", sum.Gaps)
	fmt.Printf("  mean availability:  %.1f%%\n", sum.MeanAvailability*100)

	// The flakiest devices.
	type flaky struct {
		ip      string
		reboots int
	}
	var worst []flaky
	for ip, tl := range timelines {
		if n := tl.Reboots(); n > 0 {
			worst = append(worst, flaky{ip.String(), n})
		}
	}
	sort.Slice(worst, func(i, j int) bool {
		if worst[i].reboots != worst[j].reboots {
			return worst[i].reboots > worst[j].reboots
		}
		return worst[i].ip < worst[j].ip
	})
	fmt.Println("\nmost frequently restarting devices:")
	for i, f := range worst {
		if i == 5 {
			break
		}
		fmt.Printf("  %-18s %d restarts\n", f.ip, f.reboots)
	}
}
