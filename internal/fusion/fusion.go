// Package fusion combines per-protocol alias evidence into fused device
// sets: weighted agreement across protocols, conflict resolution when
// protocols disagree, and a marginal-gain report per protocol — the analogue
// of the paper lineage's comparison against MIDAR and Speedtrap ("Pushing
// Alias Resolution to the Limit"), answering "what does each protocol add
// beyond the others?".
//
// The input is deliberately generic: each protocol contributes groups of
// addresses it believes share a device (SNMPv3 engine-ID groups, ICMP
// clock-offset bins, NTP clock identities), with a weight expressing how
// conclusive that protocol's agreement is. Fusion is pure and deterministic:
// equal inputs give byte-identical reports regardless of map iteration or
// caller ordering.
package fusion

import (
	"net/netip"
	"sort"
)

// ProtocolEvidence is one protocol's alias view of a campaign.
type ProtocolEvidence struct {
	// Protocol names the probe module that produced the evidence.
	Protocol string
	// Weight is the protocol's vote weight for both agreement and
	// conflict (see internal/probe Module.Weight).
	Weight float64
	// Groups buckets addresses by the protocol's device-identity key;
	// each group claims its members are interfaces of one device.
	Groups map[string][]netip.Addr
}

// Pair is one unordered candidate alias pair, stored with A < B.
type Pair struct {
	A, B netip.Addr
}

// pairOf normalizes an unordered pair.
func pairOf(a, b netip.Addr) Pair {
	if b.Less(a) {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// maxGroupFanout caps how many addresses of one group propose pairwise
// candidates: pair expansion is quadratic, and a single amplifier-style
// group (thousands of addresses behind one key) must not dominate the
// candidate set. Groups beyond the cap propose pairs among their
// maxGroupFanout lowest addresses only; the report counts the truncation.
const maxGroupFanout = 256

// ProtocolReport is the per-protocol slice of the fusion report.
type ProtocolReport struct {
	Protocol string  `json:"protocol"`
	Weight   float64 `json:"weight"`
	// IPs is how many addresses the protocol observed with an
	// alias-usable key; Groups how many distinct keys.
	IPs    int `json:"ips"`
	Groups int `json:"groups"`
	// Proposed counts the candidate pairs this protocol's groups put
	// forward; Accepted the subset that survived weighted voting;
	// Conflicted the subset rejected because opposing weight won.
	Proposed   int `json:"proposed_pairs"`
	Accepted   int `json:"accepted_pairs"`
	Conflicted int `json:"conflict_pairs"`
	// MarginalPairs counts accepted pairs proposed by this protocol
	// alone, and MarginalSets the fused sets containing at least one such
	// pair: the protocol's contribution beyond every other protocol — the
	// paper lineage's marginal-gain metric.
	MarginalPairs int `json:"marginal_pairs"`
	MarginalSets  int `json:"marginal_sets"`
	// OversizeGroups counts groups truncated at maxGroupFanout.
	OversizeGroups int `json:"oversize_groups,omitempty"`
}

// FusedSet is one fused device: the union of accepted pairwise claims.
type FusedSet struct {
	IPs []netip.Addr `json:"ips"`
	// Protocols lists, sorted, every protocol that proposed at least one
	// accepted pair inside the set.
	Protocols []string `json:"protocols"`
}

// Report is the full fusion result.
type Report struct {
	Protocols []ProtocolReport `json:"protocols"`
	Sets      []FusedSet       `json:"sets"`
	// AcceptedPairs and ConflictPairs total the weighted vote outcomes
	// over all distinct candidate pairs.
	AcceptedPairs int `json:"accepted_pairs"`
	ConflictPairs int `json:"conflict_pairs"`
}

// pairVote accumulates the weighted votes on one candidate pair.
type pairVote struct {
	support float64
	oppose  float64
	// proposers is a bitmask over the evidence slice (sorted by protocol).
	proposers uint64
}

// Fuse combines the per-protocol evidence. A candidate pair is every
// same-group address pair any protocol proposes. Each protocol votes on each
// candidate: support (its groups also pair them), oppose (it observed both
// addresses under different keys — positive evidence they are different
// devices), or abstain (it lacks evidence for one side). A pair is accepted
// when supporting weight strictly exceeds opposing weight; accepted pairs
// are unioned into fused sets.
func Fuse(evidence []ProtocolEvidence) *Report {
	// Canonical protocol order, independent of caller ordering.
	evs := make([]ProtocolEvidence, len(evidence))
	copy(evs, evidence)
	sort.Slice(evs, func(i, j int) bool { return evs[i].Protocol < evs[j].Protocol })

	rep := &Report{Protocols: make([]ProtocolReport, len(evs))}
	// Per-protocol key of each address, for opposition checks.
	keyOf := make([]map[netip.Addr]string, len(evs))
	votes := make(map[Pair]*pairVote)
	for pi := range evs {
		ev := &evs[pi]
		pr := &rep.Protocols[pi]
		pr.Protocol, pr.Weight = ev.Protocol, ev.Weight
		keys := make(map[netip.Addr]string)
		keyOf[pi] = keys
		pr.Groups = len(ev.Groups)
		for key, ips := range ev.Groups {
			for _, ip := range ips {
				keys[ip] = key
			}
			members := ips
			if len(members) > maxGroupFanout {
				// Cap at the lowest addresses, not the caller's first ones,
				// so the candidate set ignores member order.
				members = append([]netip.Addr(nil), ips...)
				sort.Slice(members, func(i, j int) bool { return members[i].Less(members[j]) })
				members = members[:maxGroupFanout]
				pr.OversizeGroups++
			}
			for i := 0; i < len(members); i++ {
				for j := i + 1; j < len(members); j++ {
					p := pairOf(members[i], members[j])
					v := votes[p]
					if v == nil {
						v = &pairVote{}
						votes[p] = v
					}
					if v.proposers&(1<<uint(pi)) == 0 {
						v.proposers |= 1 << uint(pi)
						v.support += ev.Weight
						pr.Proposed++
					}
				}
			}
		}
		pr.IPs = len(keys)
	}

	// Opposition pass: a protocol that saw both endpoints under different
	// keys votes against with its full weight.
	pairs := make([]Pair, 0, len(votes))
	for p := range votes {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A.Less(pairs[j].A)
		}
		return pairs[i].B.Less(pairs[j].B)
	})
	uf := newUnionFind()
	type acceptedPair struct {
		p         Pair
		proposers uint64
	}
	var accepted []acceptedPair
	for _, p := range pairs {
		v := votes[p]
		for pi := range evs {
			if v.proposers&(1<<uint(pi)) != 0 {
				continue
			}
			ka, oka := keyOf[pi][p.A]
			kb, okb := keyOf[pi][p.B]
			if oka && okb && ka != kb {
				v.oppose += evs[pi].Weight
			}
		}
		if v.support > v.oppose {
			rep.AcceptedPairs++
			accepted = append(accepted, acceptedPair{p, v.proposers})
			uf.union(p.A, p.B)
			for pi := range evs {
				if v.proposers&(1<<uint(pi)) != 0 {
					rep.Protocols[pi].Accepted++
					if v.proposers == 1<<uint(pi) {
						rep.Protocols[pi].MarginalPairs++
					}
				}
			}
		} else {
			rep.ConflictPairs++
			for pi := range evs {
				if v.proposers&(1<<uint(pi)) != 0 {
					rep.Protocols[pi].Conflicted++
				}
			}
		}
	}

	// Materialize fused sets and per-set protocol attribution.
	setProtos := make(map[netip.Addr]uint64)   // root -> proposer mask over accepted pairs
	setMarginal := make(map[netip.Addr]uint64) // root -> protocols with a marginal pair inside
	for _, ap := range accepted {
		root := uf.find(ap.p.A)
		setProtos[root] |= ap.proposers
		if ap.proposers&(ap.proposers-1) == 0 {
			setMarginal[root] |= ap.proposers
		}
	}
	members := make(map[netip.Addr][]netip.Addr)
	for addr := range uf.parent {
		root := uf.find(addr)
		members[root] = append(members[root], addr)
	}
	rep.Sets = make([]FusedSet, 0, len(members))
	for root, ips := range members {
		sort.Slice(ips, func(i, j int) bool { return ips[i].Less(ips[j]) })
		mask := setProtos[root]
		var protos []string
		for pi := range evs {
			if mask&(1<<uint(pi)) != 0 {
				protos = append(protos, evs[pi].Protocol)
			}
		}
		rep.Sets = append(rep.Sets, FusedSet{IPs: ips, Protocols: protos})
		for pi := range evs {
			if setMarginal[root]&(1<<uint(pi)) != 0 {
				rep.Protocols[pi].MarginalSets++
			}
		}
	}
	sort.Slice(rep.Sets, func(i, j int) bool {
		if len(rep.Sets[i].IPs) != len(rep.Sets[j].IPs) {
			return len(rep.Sets[i].IPs) > len(rep.Sets[j].IPs)
		}
		return rep.Sets[i].IPs[0].Less(rep.Sets[j].IPs[0])
	})
	return rep
}

// unionFind is a path-compressing union-find over addresses.
type unionFind struct {
	parent map[netip.Addr]netip.Addr
}

func newUnionFind() *unionFind {
	return &unionFind{parent: make(map[netip.Addr]netip.Addr)}
}

func (u *unionFind) find(a netip.Addr) netip.Addr {
	p, ok := u.parent[a]
	if !ok {
		u.parent[a] = a
		return a
	}
	if p == a {
		return a
	}
	root := u.find(p)
	u.parent[a] = root
	return root
}

// union merges the sets of a and b; the lower root wins so the forest shape
// is input-order independent given the sorted pair iteration above.
func (u *unionFind) union(a, b netip.Addr) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if rb.Less(ra) {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
}
