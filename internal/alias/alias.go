// Package alias implements the paper's Section 5 alias resolution: IPs that
// report the same engine ID, the same engine boots, and closely matching
// last-reboot times across both campaigns belong to the same device.
//
// The package also implements the matching-rule variants compared in the
// paper's Appendix A (Table 3) and the dual-stack join of Section 5.1.
package alias

import (
	"fmt"
	"sort"
	"time"

	"snmpv3fp/internal/filter"
)

// Binning selects how the last-reboot timestamp is quantized before
// matching (Appendix A).
type Binning int

// Binning rules.
const (
	// BinExact matches last-reboot times to the second.
	BinExact Binning = iota
	// BinRound rounds the seconds value to the nearest 10 ("Round").
	BinRound
	// BinDiv20 floors the seconds value into 20-second bins ("Divide by
	// 20") — the rule the paper adopts for its main results.
	BinDiv20
	// BinDiv20Round rounds into 20-second bins ("Divide by 20+round").
	BinDiv20Round
)

// String names the binning as in Table 3.
func (b Binning) String() string {
	switch b {
	case BinExact:
		return "Exact"
	case BinRound:
		return "Round"
	case BinDiv20:
		return "Divide by 20"
	case BinDiv20Round:
		return "Divide by 20+round"
	default:
		return fmt.Sprintf("binning(%d)", int(b))
	}
}

func (b Binning) apply(t time.Time) int64 {
	s := t.Unix()
	switch b {
	case BinRound:
		return floorDiv(s+5, 10) * 10
	case BinDiv20:
		return floorDiv(s, 20)
	case BinDiv20Round:
		return floorDiv(s+10, 20)
	default:
		return s
	}
}

// floorDiv is integer division rounding toward negative infinity. Go's /
// truncates toward zero, which would make the bins around the Unix epoch
// twice as wide and round pre-1970 timestamps the wrong way: two reboots one
// second apart on either side of a bin edge must land in adjacent bins
// whatever their sign.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// Variant is one alias-resolution rule.
type Variant struct {
	// Bin quantizes last-reboot times.
	Bin Binning
	// BothScans matches on the fields of both campaigns; otherwise only
	// the first campaign's fields are used.
	BothScans bool
}

// Default is the rule used throughout the paper's evaluation: both scans,
// 20-second bins.
var Default = Variant{Bin: BinDiv20, BothScans: true}

// Name renders the variant as in Table 3.
func (v Variant) Name() string {
	suffix := "first"
	if v.BothScans {
		suffix = "both"
	}
	return v.Bin.String() + " " + suffix
}

// Variants lists the eight rules of Table 3 in the paper's row order.
var Variants = []Variant{
	{BinExact, false}, {BinExact, true},
	{BinRound, false}, {BinRound, true},
	{BinDiv20, false}, {BinDiv20, true},
	{BinDiv20Round, false}, {BinDiv20Round, true},
}

// Set is one alias set: all members belong to the same inferred device.
type Set struct {
	Members []*filter.Merged
}

// Size returns the number of member IPs.
func (s *Set) Size() int { return len(s.Members) }

// Singleton reports whether the set has only one member.
func (s *Set) Singleton() bool { return len(s.Members) == 1 }

// Family is the address-family composition of a set.
type Family int

// Families.
const (
	V4Only Family = iota
	V6Only
	DualStack
)

// String names the family.
func (f Family) String() string {
	switch f {
	case V4Only:
		return "IPv4-only"
	case V6Only:
		return "IPv6-only"
	default:
		return "dual-stack"
	}
}

// Family classifies the set by its members' address families.
func (s *Set) Family() Family {
	var has4, has6 bool
	for _, m := range s.Members {
		if m.IP.Is4() {
			has4 = true
		} else {
			has6 = true
		}
	}
	switch {
	case has4 && has6:
		return DualStack
	case has6:
		return V6Only
	default:
		return V4Only
	}
}

// Key identifies one alias set under a variant: all IPs mapping to the same
// Key belong to the same inferred device. It is exported so incremental
// resolvers (internal/store) group by exactly the rule Resolve applies.
type Key struct {
	EngineID string
	Boots1   int64
	Reboot1  int64
	Boots2   int64
	Reboot2  int64
}

// Key computes the grouping key for one merged observation.
func (v Variant) Key(m *filter.Merged) Key { return v.KeyWith(m, string(m.EngineID)) }

// KeyWith is Key with the engine ID already converted by the caller, which
// must pass string(m.EngineID): an incremental caller interns it instead of
// allocating a copy per call.
func (v Variant) KeyWith(m *filter.Merged, engineID string) Key {
	k := Key{
		EngineID: engineID,
		Boots1:   m.Boots[0],
		Reboot1:  v.Bin.apply(m.LastReboot[0]),
	}
	if v.BothScans {
		k.Boots2 = m.Boots[1]
		k.Reboot2 = v.Bin.apply(m.LastReboot[1])
	}
	return k
}

// Resolve groups the validated observations into alias sets under the given
// variant. The result is ordered by decreasing size, ties broken by the
// first member's IP for determinism.
func Resolve(valid []*filter.Merged, v Variant) []*Set {
	groups := make(map[Key]*Set, len(valid))
	for _, m := range valid {
		k := v.Key(m)
		g := groups[k]
		if g == nil {
			g = &Set{}
			groups[k] = g
		}
		g.Members = append(g.Members, m)
	}
	sets := make([]*Set, 0, len(groups))
	for _, g := range groups {
		sort.Slice(g.Members, func(i, j int) bool { return g.Members[i].IP.Less(g.Members[j].IP) })
		sets = append(sets, g)
	}
	sort.Slice(sets, func(i, j int) bool {
		if len(sets[i].Members) != len(sets[j].Members) {
			return len(sets[i].Members) > len(sets[j].Members)
		}
		return sets[i].Members[0].IP.Less(sets[j].Members[0].IP)
	})
	return sets
}

// Stats summarizes a resolution run: the columns of Table 3.
type Stats struct {
	Sets            int
	NonSingleton    int
	IPsNonSingleton int
}

// IPsPerNonSingleton is the average set size among non-singleton sets.
func (s Stats) IPsPerNonSingleton() float64 {
	if s.NonSingleton == 0 {
		return 0
	}
	return float64(s.IPsNonSingleton) / float64(s.NonSingleton)
}

// Summarize computes Stats for a set list.
func Summarize(sets []*Set) Stats {
	var st Stats
	st.Sets = len(sets)
	for _, s := range sets {
		if !s.Singleton() {
			st.NonSingleton++
			st.IPsNonSingleton += s.Size()
		}
	}
	return st
}

// SplitByFamily partitions sets into IPv4-only, IPv6-only and dual-stack
// (the Section 5.1 final numbers).
func SplitByFamily(sets []*Set) map[Family][]*Set {
	out := map[Family][]*Set{}
	for _, s := range sets {
		f := s.Family()
		out[f] = append(out[f], s)
	}
	return out
}
