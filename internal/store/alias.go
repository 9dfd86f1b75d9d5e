package store

import (
	"encoding/hex"
	"net/netip"
	"sort"

	"snmpv3fp/internal/alias"
	"snmpv3fp/internal/core"
	"snmpv3fp/internal/filter"
)

// aliasIndex maintains the paper's Section 4.4 validation and Section 5
// alias resolution incrementally over the two most recent campaigns: each
// ingested observation updates only its own IP (plus, rarely, the other
// members of a newly promiscuous engine-ID body), so alias sets and vendor
// tallies are always current without ever re-running the batch pipeline.
// The resulting sets are byte-identical to
// alias.Resolve(filter.Run(prev, cur).Valid, variant) on the same pair.
//
// It is not safe for concurrent use; the Store serializes access.
type aliasIndex struct {
	variant alias.Variant
	// pair is the (previous, current) campaign sequence pair being
	// resolved; pair[0] == 0 means fewer than two campaigns exist yet.
	pair [2]uint64

	// cands holds every IP that merged cleanly across the pair and passed
	// the per-IP length step (the population the global promiscuity step
	// ranges over).
	cands map[netip.Addr]*candidate
	// bodies tracks, per engine-ID body, which enterprise numbers claim it
	// — step 4's promiscuity check, maintained as a multiset so removals
	// (superseding re-ingests) can un-flag a body.
	bodies map[string]*bodyState
	// sets are the live alias sets, keyed by the variant's grouping key.
	sets map[alias.Key]*deviceSet
	// vendors counts alias sets (devices) per vendor label.
	vendors map[string]int
}

type candidate struct {
	m       *filter.Merged
	body    string
	hasBody bool
	// valid reports the per-IP steps beyond length: 5–6 (identity) and
	// 7–10 (timeliness). Step 4 is tracked via the body state.
	valid bool
	key   alias.Key
}

type bodyState struct {
	enterprises map[uint32]int
	members     map[netip.Addr]*candidate
}

// promiscuous reports step 4: the same body claimed under two or more
// distinct enterprise numbers.
func (b *bodyState) promiscuous() bool { return len(b.enterprises) >= 2 }

type deviceSet struct {
	key    alias.Key
	vendor string
	ips    map[netip.Addr]*filter.Merged
}

func newAliasIndex(v alias.Variant) *aliasIndex {
	ai := &aliasIndex{variant: v}
	ai.reset([2]uint64{0, 0})
	return ai
}

// reset rebinds the index to a new campaign pair. The new current campaign
// has no observations yet, so the index restarts empty and refills as they
// arrive — no rebuild over history is ever needed.
func (ai *aliasIndex) reset(pair [2]uint64) {
	ai.pair = pair
	ai.cands = make(map[netip.Addr]*candidate)
	ai.bodies = make(map[string]*bodyState)
	ai.sets = make(map[alias.Key]*deviceSet)
	ai.vendors = make(map[string]int)
}

// update re-derives one IP's contribution from its pair of observations
// (either may be nil). Called for every ingested observation.
func (ai *aliasIndex) update(ip netip.Addr, o1, o2 *core.Observation) {
	ai.remove(ip)
	if ai.pair[0] == 0 {
		return // no previous campaign: nothing to resolve against
	}
	m, ok := filter.Merge(ip, o1, o2)
	if !ok || !m.LongEnough() {
		return
	}
	c := &candidate{m: m, valid: m.RoutableIPv4() && m.RegisteredMAC() && m.ValidTimeliness()}
	if c.valid {
		c.key = ai.variant.Key(m)
	}
	ai.cands[ip] = c
	if body, ok := m.PromiscuityBody(); ok {
		c.body, c.hasBody = body, true
		b := ai.bodies[body]
		if b == nil {
			b = &bodyState{
				enterprises: make(map[uint32]int),
				members:     make(map[netip.Addr]*candidate),
			}
			ai.bodies[body] = b
		}
		wasPromiscuous := b.promiscuous()
		b.enterprises[m.Parsed.Enterprise]++
		b.members[ip] = c
		if b.promiscuous() {
			if !wasPromiscuous {
				// The body just turned promiscuous: evict the members
				// already serving from sets.
				for mip, mc := range b.members {
					if mip != ip && mc.valid {
						ai.removeFromSet(mc)
					}
				}
			}
			return // promiscuous members never enter sets
		}
	}
	if c.valid {
		ai.addToSet(c)
	}
}

// remove erases the IP's current contribution, reversing promiscuity flips
// its departure causes.
func (ai *aliasIndex) remove(ip netip.Addr) {
	c := ai.cands[ip]
	if c == nil {
		return
	}
	delete(ai.cands, ip)
	inSet := c.valid && (!c.hasBody || !ai.bodies[c.body].promiscuous())
	if inSet {
		ai.removeFromSet(c)
	}
	if c.hasBody {
		b := ai.bodies[c.body]
		wasPromiscuous := b.promiscuous()
		ent := c.m.Parsed.Enterprise
		if b.enterprises[ent]--; b.enterprises[ent] == 0 {
			delete(b.enterprises, ent)
		}
		delete(b.members, ip)
		if len(b.members) == 0 {
			delete(ai.bodies, c.body)
			return
		}
		if wasPromiscuous && !b.promiscuous() {
			// The departure un-flagged the body: readmit survivors.
			for _, mc := range b.members {
				if mc.valid {
					ai.addToSet(mc)
				}
			}
		}
	}
}

func (ai *aliasIndex) addToSet(c *candidate) {
	set := ai.sets[c.key]
	if set == nil {
		set = &deviceSet{
			key:    c.key,
			vendor: core.FingerprintEngineID(c.m.EngineID).VendorLabel(),
			ips:    make(map[netip.Addr]*filter.Merged),
		}
		ai.sets[c.key] = set
		ai.vendors[set.vendor]++
	}
	set.ips[c.m.IP] = c.m
}

func (ai *aliasIndex) removeFromSet(c *candidate) {
	set := ai.sets[c.key]
	if set == nil {
		return
	}
	delete(set.ips, c.m.IP)
	if len(set.ips) == 0 {
		delete(ai.sets, c.key)
		if ai.vendors[set.vendor]--; ai.vendors[set.vendor] == 0 {
			delete(ai.vendors, set.vendor)
		}
	}
}

// AliasSet is one materialized alias set as served to readers.
type AliasSet struct {
	EngineID string       `json:"engine_id"` // lowercase hex
	Vendor   string       `json:"vendor"`
	IPs      []netip.Addr `json:"ips"`
}

// Size returns the member count.
func (s AliasSet) Size() int { return len(s.IPs) }

// VendorCount is one row of the vendor tally: how many inferred devices
// (alias sets) fingerprint to the vendor.
type VendorCount struct {
	Vendor  string `json:"vendor"`
	Devices int    `json:"devices"`
}

// setCount and vendorCount are the live tallies materialize would render,
// without building the slices — Stats reads them on every snapshot.
func (ai *aliasIndex) setCount() int    { return len(ai.sets) }
func (ai *aliasIndex) vendorCount() int { return len(ai.vendors) }

// materialize renders the live sets and tallies in the batch pipeline's
// canonical order: sets by decreasing size then first member IP, members by
// IP, vendors by decreasing device count then name — matching
// alias.Resolve and the snmpalias report exactly.
func (ai *aliasIndex) materialize() *aliasView {
	sets := make([]AliasSet, 0, len(ai.sets))
	for _, ds := range ai.sets {
		s := AliasSet{
			EngineID: hex.EncodeToString([]byte(ds.key.EngineID)),
			Vendor:   ds.vendor,
			IPs:      make([]netip.Addr, 0, len(ds.ips)),
		}
		for ip := range ds.ips {
			s.IPs = append(s.IPs, ip)
		}
		sort.Slice(s.IPs, func(i, j int) bool { return s.IPs[i].Less(s.IPs[j]) })
		sets = append(sets, s)
	}
	sort.Slice(sets, func(i, j int) bool {
		if len(sets[i].IPs) != len(sets[j].IPs) {
			return len(sets[i].IPs) > len(sets[j].IPs)
		}
		return sets[i].IPs[0].Less(sets[j].IPs[0])
	})
	byEngine := make(map[string][]int)
	for i := range sets {
		byEngine[sets[i].EngineID] = append(byEngine[sets[i].EngineID], i)
	}
	vendors := make([]VendorCount, 0, len(ai.vendors))
	for v, n := range ai.vendors {
		vendors = append(vendors, VendorCount{Vendor: v, Devices: n})
	}
	sort.Slice(vendors, func(i, j int) bool {
		if vendors[i].Devices != vendors[j].Devices {
			return vendors[i].Devices > vendors[j].Devices
		}
		return vendors[i].Vendor < vendors[j].Vendor
	})
	return &aliasView{sets: sets, vendors: vendors, byEngine: byEngine}
}
