// Package filter implements the response-validation pipeline of the paper's
// Section 4.4: ten steps that turn the raw per-IP observations of two scan
// campaigns into the set of IPs with a valid engine ID and valid engine
// time, with per-step removal accounting.
package filter

import (
	"encoding/binary"
	"net/netip"
	"time"

	"snmpv3fp/internal/core"
	"snmpv3fp/internal/engineid"
	"snmpv3fp/internal/iputil"
	"snmpv3fp/internal/oui"
)

// RebootThreshold is the maximum last-reboot disagreement between the two
// campaigns; the paper picks 10 seconds at the knee of the router-IP
// distribution (Figure 8).
const RebootThreshold = 10 * time.Second

// MinEngineIDLen is the shortest engine ID kept; four bytes retains
// IPv4-based engine IDs (Section 4.4, "Too short engine IDs").
const MinEngineIDLen = 4

// Merged is one IP observed consistently in both campaigns.
type Merged struct {
	IP       netip.Addr
	EngineID []byte
	// Parsed caches the engine ID classification.
	Parsed engineid.Parsed
	// Boots, EngineTime, RecvAt, LastReboot index 0 for the first campaign
	// and 1 for the second.
	Boots      [2]int64
	EngineTime [2]int64
	RecvAt     [2]time.Time
	LastReboot [2]time.Time
}

// Step names one pipeline stage and how many IPs it removed.
type Step struct {
	Name    string
	Removed int
}

// Pipeline step names, in order.
var StepNames = []string{
	"missing engine ID",
	"inconsistent engine ID",
	"too short engine ID",
	"promiscuous engine ID",
	"unroutable IPv4 engine ID",
	"unregistered MAC engine ID",
	"zero engine time or boots",
	"engine time in the future",
	"inconsistent engine boots",
	"inconsistent last reboot",
}

// Report is the outcome of the pipeline.
type Report struct {
	// Scan1IPs / Scan2IPs are the raw responsive IP counts.
	Scan1IPs, Scan2IPs int
	// Scan1EngineIDs / Scan2EngineIDs count distinct engine IDs per scan.
	Scan1EngineIDs, Scan2EngineIDs int
	// Overlap is the number of IPs responsive in both campaigns.
	Overlap int
	Steps   []Step
	// ValidEngineID counts IPs surviving the engine ID steps (1–6): the
	// paper's "IPs w/ valid engine ID" column of Table 1.
	ValidEngineID int
	// Valid is the final set: valid engine ID and valid engine time.
	Valid []*Merged
}

// Merge performs the per-IP half of step 2: it merges one IP's two
// observations into a Merged when both campaigns answered with the same
// non-empty engine ID and neither flagged it inconsistent. Incremental
// consumers (internal/store) use it to validate IPs one at a time with
// exactly the batch pipeline's semantics.
func Merge(ip netip.Addr, o1, o2 *core.Observation) (*Merged, bool) {
	var m Merged
	if !MergeInto(&m, ip, o1, o2) {
		return nil, false
	}
	out := m // the only allocation, and only for a merge
	return &out, true
}

// MergeInto is Merge writing into a caller-owned Merged, for consumers that
// embed it rather than allocate one per IP. It reports false, leaving dst
// unchanged, when the observations do not merge.
func MergeInto(dst *Merged, ip netip.Addr, o1, o2 *core.Observation) bool {
	if o1 == nil || o2 == nil || len(o1.EngineID) == 0 || len(o2.EngineID) == 0 {
		return false
	}
	if string(o1.EngineID) != string(o2.EngineID) || o1.Inconsistent || o2.Inconsistent {
		return false
	}
	*dst = Merged{
		IP:         ip,
		EngineID:   o1.EngineID,
		Parsed:     engineid.Classify(o1.EngineID),
		Boots:      [2]int64{o1.EngineBoots, o2.EngineBoots},
		EngineTime: [2]int64{o1.EngineTime, o2.EngineTime},
		RecvAt:     [2]time.Time{o1.ReceivedAt, o2.ReceivedAt},
		LastReboot: [2]time.Time{o1.LastReboot(), o2.LastReboot()},
	}
	return true
}

// LongEnough is step 3: the engine ID meets the minimum length.
func (m *Merged) LongEnough() bool { return len(m.EngineID) >= MinEngineIDLen }

// PromiscuityBody returns the engine-ID body that step 4 checks for
// promiscuity (the same body claimed under multiple enterprise numbers),
// or ok=false for bodies too short to participate in the check. The bytes
// alias the engine ID; callers keying a map convert them only to insert.
func (m *Merged) PromiscuityBody() ([]byte, bool) {
	body := m.Parsed.Data
	if len(body) < MinEngineIDLen {
		return nil, false
	}
	return body, true
}

// RoutableIPv4 is step 5: IPv4-format engine IDs must embed routable
// addresses.
func (m *Merged) RoutableIPv4() bool {
	if m.Parsed.Format != engineid.FormatIPv4 {
		return true
	}
	return iputil.IsRoutableV4Bytes(m.Parsed.Data)
}

// RegisteredMAC is step 6: MAC-format engine IDs must carry a registered
// OUI.
func (m *Merged) RegisteredMAC() bool {
	mac, ok := m.Parsed.MAC()
	if !ok {
		return true
	}
	_, registered := oui.LookupMAC(mac)
	return registered
}

// NonZeroTimeliness is step 7: engine boots and engine time are non-zero in
// both campaigns.
func (m *Merged) NonZeroTimeliness() bool {
	return m.Boots[0] != 0 && m.Boots[1] != 0 &&
		m.EngineTime[0] != 0 && m.EngineTime[1] != 0
}

// NoFutureTime is step 8: the derived last reboot precedes the packet
// receive time in both campaigns.
func (m *Merged) NoFutureTime() bool {
	return !m.LastReboot[0].After(m.RecvAt[0]) && !m.LastReboot[1].After(m.RecvAt[1])
}

// ConsistentBoots is step 9: engine boots agree across campaigns.
func (m *Merged) ConsistentBoots() bool { return m.Boots[0] == m.Boots[1] }

// ConsistentReboot is step 10: last reboot agrees within RebootThreshold.
func (m *Merged) ConsistentReboot() bool { return m.RebootDelta() <= RebootThreshold }

// ValidIdentity bundles the per-IP engine ID steps (3, 5, 6). Step 4
// (promiscuity) is population-global and handled separately.
func (m *Merged) ValidIdentity() bool {
	return m.LongEnough() && m.RoutableIPv4() && m.RegisteredMAC()
}

// ValidTimeliness bundles the engine time steps (7–10).
func (m *Merged) ValidTimeliness() bool {
	return m.NonZeroTimeliness() && m.NoFutureTime() &&
		m.ConsistentBoots() && m.ConsistentReboot()
}

func countEngineIDs(c *core.Campaign) int {
	set := make(map[string]struct{}, len(c.ByIP))
	for _, o := range c.ByIP {
		if len(o.EngineID) > 0 {
			set[string(o.EngineID)] = struct{}{}
		}
	}
	return len(set)
}

// Run applies the pipeline to the two campaigns of one address family.
func Run(scan1, scan2 *core.Campaign) *Report {
	rep := &Report{
		Scan1IPs:       len(scan1.ByIP),
		Scan2IPs:       len(scan2.ByIP),
		Scan1EngineIDs: countEngineIDs(scan1),
		Scan2EngineIDs: countEngineIDs(scan2),
	}
	step := func(name string, removed int) {
		rep.Steps = append(rep.Steps, Step{Name: name, Removed: removed})
	}

	// Step 1: missing engine IDs (per responding IP, either campaign).
	missing := 0
	for _, o := range scan1.ByIP {
		if len(o.EngineID) == 0 {
			missing++
		}
	}
	for ip, o := range scan2.ByIP {
		if len(o.EngineID) == 0 {
			if o1, ok := scan1.ByIP[ip]; !ok || len(o1.EngineID) > 0 {
				missing++
			}
		}
	}
	step(StepNames[0], missing)

	// Step 2: merge the campaigns; keep the overlap with matching engine
	// IDs. Overlap counts every IP responsive in both campaigns, engine ID
	// or not — only the merge itself requires an engine ID on both sides.
	var merged []*Merged
	inconsistent := 0
	for ip, o1 := range scan1.ByIP {
		o2, ok := scan2.ByIP[ip]
		if !ok {
			continue
		}
		rep.Overlap++
		if len(o1.EngineID) == 0 || len(o2.EngineID) == 0 {
			continue
		}
		m, ok := Merge(ip, o1, o2)
		if !ok {
			inconsistent++
			continue
		}
		merged = append(merged, m)
	}
	step(StepNames[1], inconsistent)

	// Step 3: too short.
	merged, removed := partition(merged, (*Merged).LongEnough)
	step(StepNames[2], removed)

	// Step 4: promiscuous engine IDs — the same engine ID body under
	// multiple vendors (enterprise numbers).
	bodyVendors := make(map[string]uint32, len(merged))
	promiscuous := make(map[string]bool)
	for _, m := range merged {
		body, ok := m.PromiscuityBody()
		if !ok {
			continue
		}
		if ent, seen := bodyVendors[string(body)]; seen {
			if ent != m.Parsed.Enterprise {
				promiscuous[string(body)] = true
			}
		} else {
			bodyVendors[string(body)] = m.Parsed.Enterprise
		}
	}
	merged, removed = partition(merged, func(m *Merged) bool {
		return !promiscuous[string(m.Parsed.Data)]
	})
	step(StepNames[3], removed)

	// Step 5: IPv4-format engine IDs must embed routable addresses.
	merged, removed = partition(merged, (*Merged).RoutableIPv4)
	step(StepNames[4], removed)

	// Step 6: MAC-format engine IDs must carry a registered OUI.
	merged, removed = partition(merged, (*Merged).RegisteredMAC)
	step(StepNames[5], removed)
	rep.ValidEngineID = len(merged)

	// Step 7: zero engine time or boots in either campaign.
	merged, removed = partition(merged, (*Merged).NonZeroTimeliness)
	step(StepNames[6], removed)

	// Step 8: engine time in the future — a derived last reboot after the
	// packet receive time.
	merged, removed = partition(merged, (*Merged).NoFutureTime)
	step(StepNames[7], removed)

	// Step 9: engine boots must agree across campaigns.
	merged, removed = partition(merged, (*Merged).ConsistentBoots)
	step(StepNames[8], removed)

	// Step 10: last reboot must agree within the threshold.
	merged, removed = partition(merged, (*Merged).ConsistentReboot)
	step(StepNames[9], removed)

	rep.Valid = merged
	return rep
}

// partition keeps elements satisfying keep, returning the kept slice and
// the number removed. It reuses the input slice's backing array.
func partition(in []*Merged, keep func(*Merged) bool) ([]*Merged, int) {
	out := in[:0]
	for _, m := range in {
		if keep(m) {
			out = append(out, m)
		}
	}
	return out, len(in) - len(out)
}

// RebootDelta returns the absolute last-reboot difference between the two
// campaigns (the quantity of the paper's Figure 8).
func (m *Merged) RebootDelta() time.Duration {
	d := m.LastReboot[0].Sub(m.LastReboot[1])
	if d < 0 {
		d = -d
	}
	return d
}

// EngineIDKey returns the engine ID as a comparable map key.
func (m *Merged) EngineIDKey() string { return string(m.EngineID) }

// TupleKey packs (last reboot, engine boots) of the given campaign into a
// comparable key: the paper's secondary unique identifier (Appendix B),
// quantized to the given bin width.
func (m *Merged) TupleKey(scan int, bin time.Duration) [16]byte {
	var k [16]byte
	t := m.LastReboot[scan].Unix()
	if bin > 0 {
		t /= int64(bin / time.Second)
	}
	binary.BigEndian.PutUint64(k[:8], uint64(t))
	binary.BigEndian.PutUint64(k[8:], uint64(m.Boots[scan]))
	return k
}
