package store

import (
	"encoding/hex"
	"net/netip"
	"slices"
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
	// engineIDs interns the engine-ID strings set keys carry, so an update
	// converts an engine ID to a string only the first time the pair sees
	// it.
	engineIDs map[string]string
	// spare is the unused tail of the chunk new candidates are carved from.
	spare []candidate
}

// candidateChunk is how many candidates one allocation holds. A superseded
// candidate's slot is not reused; re-adding an IP within a campaign is rare,
// and reset drops every chunk with the pair.
const candidateChunk = 128

// candidate is one IP's merged pair of observations and what the index
// derived from it.
type candidate struct {
	m filter.Merged
	// body is the step-4 state of the engine-ID body, nil for bodies too
	// short to take part in the check.
	body *bodyState
	// valid reports the per-IP steps beyond length: 5–6 (identity) and
	// 7–10 (timeliness). Step 4 is tracked via the body state.
	valid bool
	key   alias.Key
	// bodySlot and setSlot are the candidate's indexes in body.members
	// and in its device set's members.
	bodySlot, setSlot int
}

// bodyState is one engine-ID body's claimants. Almost every body has one
// enterprise and few members, so both lists are slices that start in
// inline storage: a new body costs one allocation, not four maps' worth.
type bodyState struct {
	body string // the key in aliasIndex.bodies
	// enterprises counts members per claiming enterprise number.
	enterprises []entCount
	members     []*candidate
	entBuf      [1]entCount
	memberBuf   [1]*candidate
}

type entCount struct {
	ent uint32
	n   int
}

func newBodyState(body string) *bodyState {
	b := &bodyState{body: body}
	b.enterprises, b.members = b.entBuf[:0], b.memberBuf[:0]
	return b
}

// promiscuous reports step 4: the same body claimed under two or more
// distinct enterprise numbers.
func (b *bodyState) promiscuous() bool { return len(b.enterprises) >= 2 }

func (b *bodyState) add(c *candidate) {
	c.body, c.bodySlot = b, len(b.members)
	b.members = append(b.members, c)
	ent := c.m.Parsed.Enterprise
	for i := range b.enterprises {
		if b.enterprises[i].ent == ent {
			b.enterprises[i].n++
			return
		}
	}
	b.enterprises = append(b.enterprises, entCount{ent: ent, n: 1})
}

// drop removes c, moving the last member into its slot.
func (b *bodyState) drop(c *candidate) {
	last := len(b.members) - 1
	b.members[c.bodySlot] = b.members[last]
	b.members[c.bodySlot].bodySlot = c.bodySlot
	b.members[last] = nil
	b.members = b.members[:last]
	ent := c.m.Parsed.Enterprise
	for i := range b.enterprises {
		if b.enterprises[i].ent == ent {
			if b.enterprises[i].n--; b.enterprises[i].n == 0 {
				b.enterprises = slices.Delete(b.enterprises, i, i+1)
			}
			return
		}
	}
}

// deviceSet is one live alias set. Members are unordered (materialize
// sorts them) and start in inline storage, like a body's.
type deviceSet struct {
	key       alias.Key
	vendor    string
	members   []*candidate
	memberBuf [4]*candidate
}

func newAliasIndex(v alias.Variant) *aliasIndex {
	ai := &aliasIndex{variant: v}
	ai.reset([2]uint64{0, 0}, 0)
	return ai
}

// reset rebinds the index to a new campaign pair. The new current campaign
// has no observations yet, so the index restarts empty and refills as they
// arrive — no rebuild over history is ever needed. maxCands presizes the
// candidate map; a replay knows both campaigns' responder counts, and a
// candidate answered both.
func (ai *aliasIndex) reset(pair [2]uint64, maxCands int) {
	ai.pair = pair
	ai.cands = make(map[netip.Addr]*candidate, maxCands)
	ai.bodies = make(map[string]*bodyState)
	ai.sets = make(map[alias.Key]*deviceSet)
	ai.vendors = make(map[string]int)
	ai.engineIDs = make(map[string]string)
	ai.spare = nil
}

func (ai *aliasIndex) newCandidate() *candidate {
	if len(ai.spare) == 0 {
		ai.spare = make([]candidate, candidateChunk)
	}
	c := &ai.spare[0]
	ai.spare = ai.spare[1:]
	return c
}

// update re-derives one IP's contribution from its pair of observations
// (either may be nil). Called for every ingested observation.
func (ai *aliasIndex) update(ip netip.Addr, o1, o2 *core.Observation) {
	ai.remove(ip)
	if ai.pair[0] == 0 {
		return // no previous campaign: nothing to resolve against
	}
	var m filter.Merged
	if !filter.MergeInto(&m, ip, o1, o2) || !m.LongEnough() {
		return
	}
	c := ai.newCandidate()
	c.m = m
	c.valid = m.RoutableIPv4() && m.RegisteredMAC() && m.ValidTimeliness()
	if c.valid {
		id, ok := ai.engineIDs[string(m.EngineID)]
		if !ok {
			id = string(m.EngineID)
			ai.engineIDs[id] = id
		}
		c.key = ai.variant.KeyWith(&c.m, id)
	}
	ai.cands[ip] = c
	if body, ok := m.PromiscuityBody(); ok {
		b := ai.bodies[string(body)]
		if b == nil {
			b = newBodyState(string(body))
			ai.bodies[b.body] = b
		}
		wasPromiscuous := b.promiscuous()
		b.add(c)
		if b.promiscuous() {
			if !wasPromiscuous {
				// The body just turned promiscuous: evict the members
				// already serving from sets.
				for _, mc := range b.members {
					if mc != c && mc.valid {
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
	b := c.body
	inSet := c.valid && (b == nil || !b.promiscuous())
	if inSet {
		ai.removeFromSet(c)
	}
	if b != nil {
		wasPromiscuous := b.promiscuous()
		b.drop(c)
		if len(b.members) == 0 {
			delete(ai.bodies, b.body)
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
		}
		set.members = set.memberBuf[:0]
		ai.sets[c.key] = set
		ai.vendors[set.vendor]++
	}
	if set.has(c) {
		return
	}
	c.setSlot = len(set.members)
	set.members = append(set.members, c)
}

// has reports whether c is a member: adding and removing stay idempotent,
// as they were when members were a map.
func (set *deviceSet) has(c *candidate) bool {
	return c.setSlot < len(set.members) && set.members[c.setSlot] == c
}

func (ai *aliasIndex) removeFromSet(c *candidate) {
	set := ai.sets[c.key]
	if set == nil || !set.has(c) {
		return
	}
	last := len(set.members) - 1
	set.members[c.setSlot] = set.members[last]
	set.members[c.setSlot].setSlot = c.setSlot
	set.members[last] = nil
	set.members = set.members[:last]
	if len(set.members) == 0 {
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
	// Every set's members share one slab and every hex engine ID one
	// string, so a materialization allocates per view, not per set.
	nIPs, nHex := 0, 0
	for _, ds := range ai.sets {
		nIPs += len(ds.members)
		nHex += hex.EncodedLen(len(ds.key.EngineID))
	}
	ips := make([]netip.Addr, 0, nIPs)
	hexBuf := make([]byte, 0, nHex)
	hexEnd := make([]int, 0, len(ai.sets))
	sets := make([]AliasSet, 0, len(ai.sets))
	for _, ds := range ai.sets {
		lo := len(ips)
		for _, c := range ds.members {
			ips = append(ips, c.m.IP)
		}
		s := AliasSet{Vendor: ds.vendor, IPs: ips[lo:len(ips):len(ips)]}
		slices.SortFunc(s.IPs, netip.Addr.Compare)
		hexBuf = hex.AppendEncode(hexBuf, []byte(ds.key.EngineID))
		hexEnd = append(hexEnd, len(hexBuf))
		sets = append(sets, s)
	}
	hexIDs, lo := string(hexBuf), 0
	for i, hi := range hexEnd {
		sets[i].EngineID = hexIDs[lo:hi]
		lo = hi
	}
	slices.SortFunc(sets, func(a, b AliasSet) int {
		if len(a.IPs) != len(b.IPs) {
			return len(b.IPs) - len(a.IPs)
		}
		return a.IPs[0].Compare(b.IPs[0])
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
