package store

import (
	"cmp"
	"net/netip"
	"slices"
	"sort"
	"sync/atomic"

	"snmpv3fp/internal/tracker"
)

// View is an immutable snapshot of the store: a fixed segment list (the
// memtable frozen in), the materialized alias sets and vendor tallies, and
// the stats at publication time. All methods are lock-free and safe for
// concurrent use; a view never changes once published.
type View struct {
	segs      []*segment
	campaigns uint64
	*aliasView
	stats Stats
}

// aliasView is an alias index materialized for readers; views built while
// the index did not change share one.
type aliasView struct {
	sets     []AliasSet
	vendors  []VendorCount
	byEngine map[string][]int
}

// viewPub is the one way a View reaches readers, for Store and Replica
// alike: the owner publishes under its own mutex at a commit point, readers
// load the pointer and never take that mutex. A Store also withdraws the
// view (nil) where rebuilding per mutation would be waste; its Snapshot then
// publishes on demand.
type viewPub struct {
	cur atomic.Pointer[View]
	// alias renders the owner's alias index; the owner sets it nil when the
	// index moves. It outlives a withdrawn view, so a flush or compaction
	// install does not render the sets again. Owner's mutex.
	alias *aliasView
}

// publish makes the given state the current view.
func (p *viewPub) publish(segs []*segment, campaigns uint64, stats Stats, ai *aliasIndex) *View {
	if p.alias == nil {
		p.alias = ai.materialize()
	}
	v := &View{segs: segs, campaigns: campaigns, aliasView: p.alias, stats: stats}
	p.cur.Store(v)
	return v
}

// Stats returns the snapshot-time counters.
func (v *View) Stats() Stats { return v.stats }

// Campaigns returns how many campaigns the snapshot covers.
func (v *View) Campaigns() uint64 { return v.campaigns }

// History returns every surviving SNMPv3 sample for the IP in campaign
// order, superseded samples (same campaign, lower sequence) removed. The
// slice is freshly allocated; callers may keep it. Multi-protocol evidence
// is excluded — the reboot/alias semantics downstream (Timeline, Latest,
// /v1/ip) are SNMPv3 observations; use HistoryProtocol for other modules.
func (v *View) History(addr netip.Addr) []Sample {
	return v.HistoryProtocol(addr, "")
}

// HistoryProtocol is History for one protocol's samples: "" or "snmpv3" for
// SNMPv3 discovery, a module name (e.g. "icmp-ts", "ntp") for evidence
// ingested by IngestEvidence.
func (v *View) HistoryProtocol(addr netip.Addr, protocol string) []Sample {
	if protocol == "snmpv3" {
		protocol = ""
	}
	var out []Sample
	for _, g := range v.segs {
		for _, sm := range g.ipSamples(addr) {
			if sm.Protocol == protocol {
				out = append(out, sm)
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	slices.SortFunc(out, func(a, b Sample) int {
		return cmp.Or(cmp.Compare(a.Campaign, b.Campaign), cmp.Compare(a.Seq, b.Seq))
	})
	kept := out[:0]
	for i := range out {
		if len(kept) > 0 && kept[len(kept)-1].Campaign == out[i].Campaign {
			kept[len(kept)-1] = out[i] // higher Seq supersedes
			continue
		}
		kept = append(kept, out[i])
	}
	return kept
}

// FusionEvidence gathers the alias groups of one campaign, per protocol:
// protocol name ("snmpv3" for the legacy "" tag) → device-identity key →
// addresses, ready for internal/fusion. Keyless and inconsistent samples are
// excluded; among samples with equal (IP, protocol) the highest Seq wins.
// Address lists are sorted.
func (v *View) FusionEvidence(campaign uint64) map[string]map[string][]netip.Addr {
	type pk struct {
		proto string
		ip    netip.Addr
	}
	best := make(map[pk]Sample)
	for _, g := range v.segs {
		if !g.mayContainCampaign(campaign) {
			continue
		}
		g.mustScan(func(sm *Sample) {
			if sm.Campaign != campaign {
				return
			}
			k := pk{sm.Protocol, sm.IP}
			if cur, ok := best[k]; !ok || sm.Seq > cur.Seq {
				best[k] = *sm
			}
		})
	}
	out := make(map[string]map[string][]netip.Addr)
	for k, sm := range best {
		if sm.Inconsistent || len(sm.EngineID) == 0 {
			continue
		}
		proto := k.proto
		if proto == "" {
			proto = "snmpv3"
		}
		groups := out[proto]
		if groups == nil {
			groups = make(map[string][]netip.Addr)
			out[proto] = groups
		}
		key := string(sm.EngineID)
		groups[key] = append(groups[key], k.ip)
	}
	for _, groups := range out {
		for _, ips := range groups {
			sort.Slice(ips, func(i, j int) bool { return ips[i].Less(ips[j]) })
		}
	}
	return out
}

// Latest returns the IP's most recent sample.
func (v *View) Latest(addr netip.Addr) (Sample, bool) {
	h := v.History(addr)
	if len(h) == 0 {
		return Sample{}, false
	}
	return h[len(h)-1], true
}

// DeviceIPs returns every IP that ever reported the engine ID (raw bytes),
// in address order — the all-time per-engine-ID index, as opposed to the
// validated alias set of the latest pair.
func (v *View) DeviceIPs(engineID []byte) []netip.Addr {
	seen := map[netip.Addr]struct{}{}
	for _, g := range v.segs {
		for _, ip := range g.engineIPs(engineID) {
			seen[ip] = struct{}{}
		}
	}
	if len(seen) == 0 {
		return nil
	}
	out := make([]netip.Addr, 0, len(seen))
	for ip := range seen {
		out = append(out, ip)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// AliasSets returns the alias sets of the latest campaign pair, in the
// batch pipeline's canonical order. The slice is shared; do not mutate.
func (v *View) AliasSets() []AliasSet { return v.sets }

// SetsForEngine returns the alias sets whose engine ID (hex) matches — one
// per distinct (boots, binned reboot) tuple behind the engine ID.
func (v *View) SetsForEngine(engineIDHex string) []AliasSet {
	idx := v.byEngine[engineIDHex]
	if len(idx) == 0 {
		return nil
	}
	out := make([]AliasSet, 0, len(idx))
	for _, i := range idx {
		out = append(out, v.sets[i])
	}
	return out
}

// Vendors returns the device-per-vendor tally of the latest campaign pair,
// ordered by decreasing device count then vendor name. Shared; do not
// mutate.
func (v *View) Vendors() []VendorCount { return v.vendors }

// Timeline reconstructs the IP's longitudinal record across every campaign
// in the snapshot, silent campaigns included — identical to what
// tracker.Build produces over the same campaign sequence. Returns nil for
// IPs never observed.
func (v *View) Timeline(addr netip.Addr) *tracker.Timeline {
	h := v.History(addr)
	if len(h) == 0 {
		return nil
	}
	tl := &tracker.Timeline{IP: addr}
	i := 0
	for c := uint64(1); c <= v.campaigns; c++ {
		if i < len(h) && h[i].Campaign == c {
			tl.Extend(h[i].Observation())
			i++
			continue
		}
		tl.ExtendSilent()
	}
	return tl
}
