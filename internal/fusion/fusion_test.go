package fusion

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"testing"
)

// addrs returns n distinct IPv4 addresses in ascending order.
func addrs(n int) []netip.Addr {
	out := make([]netip.Addr, n)
	for i := range out {
		out[i] = netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
	}
	return out
}

// reversed returns a reversed copy of ips.
func reversed(ips []netip.Addr) []netip.Addr {
	out := slices.Clone(ips)
	slices.Reverse(out)
	return out
}

func reportJSON(t testing.TB, r *Report) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFuseOversizeGroupIgnoresMemberOrder: a group over the fan-out cap
// proposes pairs among its lowest addresses, so listing its members in
// reverse yields the same report.
func TestFuseOversizeGroupIgnoresMemberOrder(t *testing.T) {
	ips := addrs(300)
	fwd := Fuse([]ProtocolEvidence{{Protocol: "snmpv3", Weight: 1, Groups: map[string][]netip.Addr{"e": ips}}})
	rev := Fuse([]ProtocolEvidence{{Protocol: "snmpv3", Weight: 1, Groups: map[string][]netip.Addr{"e": reversed(ips)}}})
	if a, b := reportJSON(t, fwd), reportJSON(t, rev); a != b {
		t.Fatalf("member order changed the report:\n%s\nvs\n%s", a, b)
	}
	if len(fwd.Sets) != 1 || !slices.Equal(fwd.Sets[0].IPs, ips[:maxGroupFanout]) {
		t.Fatal("oversize group did not fuse its lowest addresses")
	}
}

// TestFuseEvidenceOrderIrrelevant: permuting the evidence slice gives a
// byte-identical report.
func TestFuseEvidenceOrderIrrelevant(t *testing.T) {
	ips := addrs(12)
	evs := []ProtocolEvidence{
		{Protocol: "snmpv3", Weight: 2, Groups: map[string][]netip.Addr{"a": ips[0:4], "b": ips[4:8]}},
		{Protocol: "icmp-ts", Weight: 1, Groups: map[string][]netip.Addr{"x": ips[2:6], "y": ips[8:12]}},
		{Protocol: "ntp", Weight: 1.5, Groups: map[string][]netip.Addr{"n": {ips[0], ips[11]}, "m": ips[5:7]}},
	}
	want := reportJSON(t, Fuse(evs))
	for _, perm := range [][]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		p := make([]ProtocolEvidence, len(evs))
		for i, j := range perm {
			p[i] = evs[j]
		}
		if got := reportJSON(t, Fuse(p)); got != want {
			t.Fatalf("permutation %v changed the report:\n%s\nvs\n%s", perm, got, want)
		}
	}
}

// TestFuseAgreementNeverSplits: protocols that agree, or abstain where they
// lack evidence, leave every group whole and record no conflict.
func TestFuseAgreementNeverSplits(t *testing.T) {
	ips := addrs(9)
	groups := map[string][]netip.Addr{"a": ips[0:3], "b": ips[3:6], "c": ips[6:9]}
	rep := Fuse([]ProtocolEvidence{
		{Protocol: "snmpv3", Weight: 1, Groups: groups},
		{Protocol: "ntp", Weight: 5, Groups: groups},
		// Sees only part of two groups, under matching keys.
		{Protocol: "icmp-ts", Weight: 9, Groups: map[string][]netip.Addr{"k": ips[0:2], "l": ips[6:7]}},
	})
	if rep.ConflictPairs != 0 {
		t.Fatalf("%d conflicts among agreeing protocols", rep.ConflictPairs)
	}
	if len(rep.Sets) != 3 {
		t.Fatalf("got %d sets, want 3", len(rep.Sets))
	}
	for i, s := range rep.Sets {
		if !slices.Equal(s.IPs, ips[3*i:3*i+3]) {
			t.Fatalf("set %d = %v, want %v", i, s.IPs, ips[3*i:3*i+3])
		}
	}
}

// TestFuseOversizeGroupsCounted: only groups strictly over the cap count.
func TestFuseOversizeGroupsCounted(t *testing.T) {
	ips := addrs(maxGroupFanout + (maxGroupFanout + 1) + 300)
	groups := map[string][]netip.Addr{
		"at":   ips[:maxGroupFanout],
		"over": ips[maxGroupFanout : 2*maxGroupFanout+1],
		"far":  ips[2*maxGroupFanout+1:],
	}
	rep := Fuse([]ProtocolEvidence{{Protocol: "snmpv3", Weight: 1, Groups: groups}})
	if got := rep.Protocols[0].OversizeGroups; got != 2 {
		t.Fatalf("OversizeGroups = %d, want 2", got)
	}
	if got, want := rep.Protocols[0].Proposed, 3*maxGroupFanout*(maxGroupFanout-1)/2; got != want {
		t.Fatalf("Proposed = %d, want %d", got, want)
	}
}

// TestFuseTieIsConflict: acceptance needs supporting weight strictly above
// opposing weight; an even split rejects the pair.
func TestFuseTieIsConflict(t *testing.T) {
	ips := addrs(2)
	rep := Fuse([]ProtocolEvidence{
		{Protocol: "snmpv3", Weight: 1, Groups: map[string][]netip.Addr{"e": ips}},
		{Protocol: "ntp", Weight: 1, Groups: map[string][]netip.Addr{"x": ips[:1], "y": ips[1:]}},
	})
	if rep.AcceptedPairs != 0 || rep.ConflictPairs != 1 || len(rep.Sets) != 0 {
		t.Fatalf("tie: accepted %d conflicts %d sets %d, want 0/1/0",
			rep.AcceptedPairs, rep.ConflictPairs, len(rep.Sets))
	}
	if got := rep.Protocols[1].Conflicted; got != 1 { // snmpv3 sorts after ntp
		t.Fatalf("snmpv3 Conflicted = %d, want 1", got)
	}
}

// fuzzEvidence decodes up to 8 addresses and up to 3 protocols from data.
// Each protocol gives each address one of three keys or no key, so an
// address sits in at most one group per protocol, as a device-identity key
// implies. keyOf[p][i] is that key, 0 for none, indexed by protocol name
// order.
func fuzzEvidence(data []byte) (evs []ProtocolEvidence, ips []netip.Addr, keyOf [][]byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	ips = addrs(2 + int(next())%7)
	nProto := 1 + int(next())%3
	keyOf = make([][]byte, nProto)
	for p := 0; p < nProto; p++ {
		ev := ProtocolEvidence{
			Protocol: fmt.Sprintf("p%d", p),
			Weight:   float64(next() % 4),
			Groups:   map[string][]netip.Addr{},
		}
		keyOf[p] = make([]byte, len(ips))
		for i, ip := range ips {
			k := next() % 4
			keyOf[p][i] = k
			if k != 0 {
				key := string('a' + k)
				ev.Groups[key] = append(ev.Groups[key], ip)
			}
		}
		evs = append(evs, ev)
	}
	// Caller order is input too: rotate the evidence slice.
	r := int(next()) % nProto
	evs = append(evs[r:], evs[:r]...)
	return evs, ips, keyOf
}

// referenceFuse is the specification Fuse implements, by brute force:
// vote on every address pair, then union the accepted pairs.
func referenceFuse(evs []ProtocolEvidence, ips []netip.Addr, keyOf [][]byte) *Report {
	byName := slices.Clone(evs)
	sort.Slice(byName, func(i, j int) bool { return byName[i].Protocol < byName[j].Protocol })
	rep := &Report{Protocols: make([]ProtocolReport, len(byName))}
	for p, ev := range byName {
		rep.Protocols[p] = ProtocolReport{Protocol: ev.Protocol, Weight: ev.Weight, Groups: len(ev.Groups)}
		for i := range ips {
			if keyOf[p][i] != 0 {
				rep.Protocols[p].IPs++
			}
		}
	}
	comp := make([]int, len(ips)) // component label per address
	for i := range comp {
		comp[i] = i
	}
	protos := make([]uint64, len(ips))   // by label: proposers of accepted pairs
	marginal := make([]uint64, len(ips)) // by label: sole proposers
	inSet := make([]bool, len(ips))
	for i := range ips {
		for j := i + 1; j < len(ips); j++ {
			var proposers uint64
			var support, oppose float64
			for p, ev := range byName {
				ki, kj := keyOf[p][i], keyOf[p][j]
				switch {
				case ki != 0 && ki == kj:
					proposers |= 1 << p
					support += ev.Weight
				case ki != 0 && kj != 0:
					oppose += ev.Weight
				}
			}
			if proposers == 0 {
				continue
			}
			accept := support > oppose
			for p := range byName {
				if proposers&(1<<p) == 0 {
					continue
				}
				rep.Protocols[p].Proposed++
				if !accept {
					rep.Protocols[p].Conflicted++
				} else {
					rep.Protocols[p].Accepted++
					if proposers == 1<<p {
						rep.Protocols[p].MarginalPairs++
					}
				}
			}
			if !accept {
				rep.ConflictPairs++
				continue
			}
			rep.AcceptedPairs++
			inSet[i], inSet[j] = true, true
			from, to := comp[j], comp[i]
			for k := range comp {
				if comp[k] == from {
					comp[k] = to
				}
			}
			protos[to] |= protos[from] | proposers
			marginal[to] |= marginal[from]
			if proposers&(proposers-1) == 0 {
				marginal[to] |= proposers
			}
		}
	}
	for label := range ips {
		var set FusedSet
		for i, ip := range ips {
			if inSet[i] && comp[i] == label {
				set.IPs = append(set.IPs, ip)
			}
		}
		if set.IPs == nil {
			continue
		}
		for p, ev := range byName {
			if protos[label]&(1<<p) != 0 {
				set.Protocols = append(set.Protocols, ev.Protocol)
			}
			if marginal[label]&(1<<p) != 0 {
				rep.Protocols[p].MarginalSets++
			}
		}
		rep.Sets = append(rep.Sets, set)
	}
	sort.Slice(rep.Sets, func(i, j int) bool {
		if len(rep.Sets[i].IPs) != len(rep.Sets[j].IPs) {
			return len(rep.Sets[i].IPs) > len(rep.Sets[j].IPs)
		}
		return rep.Sets[i].IPs[0].Less(rep.Sets[j].IPs[0])
	})
	if rep.Sets == nil {
		rep.Sets = []FusedSet{}
	}
	return rep
}

// FuzzFuse checks Fuse against the brute-force reference on small inputs,
// and checks that reversing every group's members leaves the report alone.
func FuzzFuse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 2, 1, 1, 1, 2, 2, 3, 3, 0, 0, 1, 1, 1, 2, 2, 3, 3, 0, 0, 1})
	f.Add([]byte{3, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{5, 2, 2, 1, 1, 1, 2, 2, 2, 3, 1, 1, 2, 2, 3, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, ips, keyOf := fuzzEvidence(data)
		got := reportJSON(t, Fuse(evs))
		if want := reportJSON(t, referenceFuse(evs, ips, keyOf)); got != want {
			t.Fatalf("Fuse diverges from the reference:\n got %s\nwant %s", got, want)
		}
		for _, ev := range evs {
			for k, g := range ev.Groups {
				ev.Groups[k] = reversed(g)
			}
		}
		if rev := reportJSON(t, Fuse(evs)); rev != got {
			t.Fatalf("member order changed the report:\n%s\nvs\n%s", rev, got)
		}
	})
}
