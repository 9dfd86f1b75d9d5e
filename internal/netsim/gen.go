package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"time"

	"snmpv3fp/internal/engineid"
	"snmpv3fp/internal/iputil"
	"snmpv3fp/internal/vclock"
)

// quirkDist is a per-class quirk probability table. Probabilities are
// calibrated so the filtering pipeline removes shares comparable to the
// paper's Section 4.4 (drift and mid-campaign reboots dominate; edge
// devices carry most anomalies while router responses stay consistent, as
// the paper's Figure 8 shows).
type quirkDist []struct {
	q Quirk
	p float64
}

var quirksByClass = map[DeviceClass]quirkDist{
	ClassRouter: {
		{QuirkReboot, 0.030},
		{QuirkDrift, 0.020},
		{QuirkZeroBootsTime, 0.005},
		{QuirkMultiResponse, 0.004},
	},
	ClassServer: {
		{QuirkReboot, 0.050},
		{QuirkDrift, 0.060},
		{QuirkZeroBootsTime, 0.020},
		{QuirkMultiResponse, 0.004},
	},
	ClassIoT: {
		{QuirkDrift, 0.30},
		{QuirkZeroBootsTime, 0.15},
		{QuirkReboot, 0.10},
		{QuirkShortEngineID, 0.05},
	},
	ClassCPE: {
		{QuirkDrift, 0.480},
		{QuirkReboot, 0.150},
		{QuirkShortEngineID, 0.065},
		{QuirkChurn, 0.055},
		{QuirkZeroBootsTime, 0.035},
		{QuirkFutureTime, 0.0010},
		{QuirkMissingEngineID, 0.0003},
		{QuirkMultiResponse, 0.006},
	},
}

// v6CPEQuirks reflects the much higher address churn of residential IPv6.
var v6CPEQuirks = quirkDist{
	{QuirkChurn, 0.12},
	{QuirkDrift, 0.05},
	{QuirkReboot, 0.02},
	{QuirkShortEngineID, 0.05},
	{QuirkZeroBootsTime, 0.05},
}

func (qd quirkDist) draw(r *rand.Rand) Quirk {
	u := r.Float64()
	for _, e := range qd {
		if u < e.p {
			return e.q
		}
		u -= e.p
	}
	return QuirkNone
}

type generator struct {
	cfg Config
	r   *rand.Rand
	w   *World

	v4Cursor  uint32
	v6ASIndex uint32
	// v4Used counts the addresses placed in each AS's newest IPv4 prefix,
	// so a full prefix is noticed without probing it.
	v4Used map[*AS]uint64

	usedEngineIDs map[string]bool
	// sharedBootEvents creates the cross-device (last reboot, boots) tuple
	// collisions of the paper's Appendix B (co-located power events).
	sharedBootEvents []time.Time
	deviceID         int
}

// Generate builds a deterministic world from cfg.
func Generate(cfg Config) *World {
	g := &generator{
		cfg: cfg,
		r:   rand.New(rand.NewSource(cfg.Seed)),
		w: &World{
			Cfg:        cfg,
			Clock:      vclock.NewVirtual(cfg.StartTime),
			asByNumber: make(map[uint32]*AS),
			byAddr:     make(map[netip.Addr]*Device),
			ptr:        make(map[netip.Addr]string),
		},
		v4Cursor:      iputil.V4ToUint(netip.MustParseAddr("1.0.0.0")),
		v4Used:        make(map[*AS]uint64),
		usedEngineIDs: make(map[string]bool),
	}
	// Campaigns are scheduled by the harness at StartTime+15d and +21d
	// (mirroring the paper's April 16 and April 22 start dates); churn and
	// mid-campaign reboots flip between them.
	g.w.churnFlip = cfg.StartTime.Add(20 * 24 * time.Hour)
	for i := 0; i < 20; i++ {
		g.sharedBootEvents = append(g.sharedBootEvents, g.bootTime())
	}
	g.genASes()
	g.genRouters()
	g.genServers()
	g.genCPE()
	g.genIoT()
	g.genSpecialPopulations()
	g.genHitlistFiller()
	g.w.buildAddr4Index()
	return g.w
}

// genHitlistFiller adds unallocated IPv6 addresses to the hitlist: targets
// that never answer, as the bulk of the real IPv6 Hitlist does not.
func (g *generator) genHitlistFiller() {
	for i := 0; i < g.cfg.HitlistFiller; i++ {
		a := g.w.ASes[g.r.Intn(len(g.w.ASes))]
		if len(a.V6Prefixes) == 0 {
			continue
		}
		addr := iputil.NthAddr(a.V6Prefixes[0], uint64(g.r.Int63())&0xFFFFFFFFFFFF)
		if _, taken := g.w.byAddr[addr]; taken {
			continue
		}
		g.w.hitlistFiller = append(g.w.hitlistFiller, addr)
	}
}

// pickRegion draws a region from the calibrated weights.
func (g *generator) pickRegion() Region {
	u := g.r.Float64()
	for _, rw := range regionWeights {
		if u < rw.Weight {
			return rw.Region
		}
		u -= rw.Weight
	}
	return RegionOC
}

// pickRouterVendor draws a router vendor for the given region.
func (g *generator) pickRouterVendor(region Region) string {
	total := 0.0
	weights := make([]float64, len(RouterVendorMix))
	for i, vm := range RouterVendorMix {
		w := vm.Weight
		if vm.Vendor == "Huawei" {
			w *= RegionHuaweiShare[region]
		}
		weights[i] = w
		total += w
	}
	u := g.r.Float64() * total
	for i, vm := range RouterVendorMix {
		if u < weights[i] {
			return vm.Vendor
		}
		u -= weights[i]
	}
	return "Cisco"
}

func (g *generator) pickCPEVendor() string {
	u := g.r.Float64()
	for _, vm := range CPEVendorMix {
		if u < vm.Weight {
			return vm.Vendor
		}
		u -= vm.Weight
	}
	return "Thomson"
}

// allocV4Prefix carves the next aligned IPv4 prefix holding at least n
// addresses out of routable space, skipping special-purpose blocks.
func (g *generator) allocV4Prefix(n int) netip.Prefix {
	bits := 32
	for (1 << (32 - bits)) < n {
		bits--
	}
	if bits > 24 {
		bits = 24 // allocate at least a /24 per AS
	}
	size := uint32(1) << (32 - bits)
	for {
		// Align the cursor.
		if g.v4Cursor%size != 0 {
			g.v4Cursor += size - g.v4Cursor%size
		}
		first := iputil.UintToV4(g.v4Cursor)
		last := iputil.UintToV4(g.v4Cursor + size - 1)
		if iputil.IsRoutable(first) && iputil.IsRoutable(last) {
			p := netip.PrefixFrom(first, bits)
			g.v4Cursor += size
			return p
		}
		// Skip forward past the special block.
		g.v4Cursor += size
		if g.v4Cursor < size { // wrapped
			panic("netsim: IPv4 space exhausted")
		}
	}
}

// allocV6Prefix hands each AS its own documentation-free /48.
func (g *generator) allocV6Prefix() netip.Prefix {
	g.v6ASIndex++
	var b [16]byte
	b[0], b[1] = 0x2a, 0x0b
	b[2] = byte(g.v6ASIndex >> 16)
	b[3] = byte(g.v6ASIndex >> 8)
	b[4] = byte(g.v6ASIndex)
	return netip.PrefixFrom(netip.AddrFrom16(b), 48)
}

var rdnsTLDs = []string{"net", "com", "org", "io"}

func (g *generator) genASes() {
	total := g.cfg.TransitASes + g.cfg.EyeballASes + g.cfg.HostingASes
	asn := uint32(100)
	for i := 0; i < total; i++ {
		kind := ASTransit
		switch {
		case i >= g.cfg.TransitASes+g.cfg.EyeballASes:
			kind = ASHosting
		case i >= g.cfg.TransitASes:
			kind = ASEyeball
		}
		region := g.pickRegion()
		a := &AS{
			Number: asn,
			Region: region,
			Kind:   kind,
			Name:   fmt.Sprintf("AS%d-%s", asn, region),
		}
		a.DominantVendor = g.pickRouterVendor(region)
		if g.r.Float64() < 0.70 {
			a.RDNSDomain = fmt.Sprintf("as%d.%s", asn, rdnsTLDs[g.r.Intn(len(rdnsTLDs))])
		}
		g.w.ASes = append(g.w.ASes, a)
		g.w.asByNumber[asn] = a
		asn += uint32(1 + g.r.Intn(40))
	}
}

// dominance samples a per-AS vendor dominance per the paper's Figure 17
// (>80% of ASes at 0.7 or higher, a long thin tail below).
func (g *generator) dominance() float64 {
	u := g.r.Float64()
	switch {
	case u < 0.42:
		return 1.0
	case u < 0.82:
		return 0.70 + 0.30*g.r.Float64()
	case u < 0.95:
		return 0.50 + 0.20*g.r.Float64()
	default:
		return 0.30 + 0.20*g.r.Float64()
	}
}

// interfaceCount samples the number of IPv4 interfaces of a router
// (lognormal, median ~2.7, long tail).
func (g *generator) interfaceCount() int {
	n := int(math.Round(math.Exp(g.r.NormFloat64()*1.25 + 1.55)))
	if n < 1 {
		n = 1
	}
	if n > 500 {
		n = 500
	}
	return n
}

// bootTime samples a last-reboot instant per the paper's Figure 13: ~20%
// within the last month, ~55% within the measurement year, ~78% within one
// year, and a tail back to 2014.
func (g *generator) bootTime() time.Time {
	day := 24 * time.Hour
	// Ages are anchored at the first IPv4 campaign (StartTime + 15 days),
	// the reference the paper's uptime statistics use.
	ref := g.cfg.StartTime.Add(15 * day)
	u := g.r.Float64()
	var age time.Duration
	switch {
	case u < 0.20:
		age = time.Duration(g.r.Float64() * 29 * float64(day))
	case u < 0.55:
		age = time.Duration((29 + g.r.Float64()*76) * float64(day))
	case u < 0.78:
		age = time.Duration((105 + g.r.Float64()*260) * float64(day))
	default:
		age = time.Duration((365 + g.r.ExpFloat64()*700) * float64(day))
		if age > 7*365*day {
			age = 7 * 365 * day
		}
	}
	// Sub-day jitter so boot instants rarely collide by accident, floored
	// at one hour before the anchor so engine times stay positive.
	age += time.Duration(g.r.Int63n(int64(day)))
	if age < time.Hour {
		age = time.Hour
	}
	return ref.Add(-age)
}

func (g *generator) boots() int64 {
	// Geometric-ish: most devices have rebooted a handful of times, some
	// hundreds (the paper's Figure 3 example reports 148).
	b := int64(1 + g.r.Intn(8))
	for g.r.Float64() < 0.35 && b < 400 {
		b += int64(g.r.Intn(40))
	}
	return b
}

// newDevice assembles the shared parts of any device.
func (g *generator) newDevice(class DeviceClass, profile *Profile, asn uint32) *Device {
	g.deviceID++
	d := &Device{
		ID:       g.deviceID,
		Class:    class,
		Profile:  profile,
		ASN:      asn,
		Boots:    g.boots(),
		BootTime: g.bootTime(),
		Responds: g.r.Float64() < g.cfg.DeviceRespondProb,
		ipidBase: uint16(g.r.Intn(1 << 16)),
		ipidRate: 0.5 + g.r.Float64()*30,
	}
	// Per-device clock skew (±150 ppm) and timestamp origin, shared by all
	// of the device's interfaces.
	d.tsSkewPPM = (g.r.Float64() - 0.5) * 300
	d.tsOffset = uint32(g.r.Int63())
	// Busy devices wrap their 16-bit IP-ID counter faster than an alias
	// resolver can sample it -- the paper's Section 7.2 critique of IP-ID
	// techniques. These defeat MIDAR's velocity estimation.
	if g.r.Float64() < 0.35 {
		d.ipidRate = 1500 + g.r.Float64()*25000
	}
	// A tenth of the population reboots on a recurring schedule (patch
	// cycles, flaky power): the signal the longitudinal tracker watches.
	if g.r.Float64() < 0.10 {
		d.RebootPeriod = time.Duration(45+g.r.Intn(355)) * 24 * time.Hour
	}
	// A slice of devices share boot events, producing the small population
	// of cross-device (last reboot, boots) tuple collisions of Appendix B.
	if g.r.Float64() < 0.03 {
		d.BootTime = g.sharedBootEvents[g.r.Intn(len(g.sharedBootEvents))]
		d.Boots = int64(1 + g.r.Intn(3))
	}
	if q, ok := quirksByClass[class]; ok {
		d.Quirk = q.draw(g.r)
	}
	// Churn and mid-measurement reboots flip between the two IPv4
	// campaigns by default; IPv6-only populations override FlipAt to land
	// between the (one day apart) IPv6 campaigns.
	d.FlipAt = g.w.churnFlip
	g.applyQuirkDetails(d)
	return d
}

func (g *generator) applyQuirkDetails(d *Device) {
	switch d.Quirk {
	case QuirkDrift:
		// Enough drift that two campaigns days apart disagree on the last
		// reboot by minutes to hours — well past the 10 s threshold.
		d.DriftRate = 0.0005 + g.r.Float64()*0.02
		if g.r.Float64() < 0.5 {
			d.DriftRate = -d.DriftRate
		}
	case QuirkMultiResponse:
		d.DupCount = 2 + g.r.Intn(4)
	}
}

// assignV4 places n addresses for the device inside the AS's newest IPv4
// prefix. When that prefix has no free address left, the AS gets one more
// prefix of the same size and placement continues there.
func (g *generator) assignV4(d *Device, a *AS, n int) {
	p := a.V4Prefixes[len(a.V4Prefixes)-1]
	size, used := iputil.PrefixSize(p), g.v4Used[a]
	for len(d.V4) < n {
		if used == size {
			p = g.allocV4Prefix(int(size))
			a.V4Prefixes = append(a.V4Prefixes, p)
			used = 0
			continue
		}
		addr := iputil.NthAddr(p, uint64(g.r.Int63n(int64(size))))
		if _, taken := g.w.byAddr[addr]; taken {
			continue
		}
		g.w.byAddr[addr] = d
		d.V4 = append(d.V4, addr)
		used++
	}
	g.v4Used[a] = used
}

func (g *generator) assignV6(d *Device, p netip.Prefix, n int) {
	for len(d.V6) < n {
		addr := iputil.NthAddr(p, uint64(g.r.Int63())&0xFFFFFFFFFFFF)
		if _, taken := g.w.byAddr[addr]; taken {
			continue
		}
		g.w.byAddr[addr] = d
		d.V6 = append(d.V6, addr)
	}
}

func (g *generator) genRouters() {
	// Power-law responsive-router counts over transit ASes; eyeball and
	// hosting ASes run a handful of routers each.
	counts := make([]int, 0, len(g.w.ASes))
	rank := 1
	for _, a := range g.w.ASes {
		var n int
		switch a.Kind {
		case ASTransit:
			n = int(float64(g.cfg.MaxRoutersPerAS) / math.Pow(float64(rank), g.cfg.RouterZipfExponent))
			rank++
			if n < 1 {
				n = 1
			}
			// Jitter so same-rank worlds differ across seeds.
			n += g.r.Intn(n/4 + 1)
		case ASEyeball:
			n = 2 + g.r.Intn(12)
		case ASHosting:
			n = 1 + g.r.Intn(6)
		}
		counts = append(counts, n)
	}
	// The per-AS budget counts *responsive* routers; inflate to the full
	// population using the respond probability.
	for i, a := range g.w.ASes {
		responsive := counts[i]
		total := int(math.Round(float64(responsive) / g.cfg.DeviceRespondProb))
		if total < responsive {
			total = responsive
		}
		dom := g.dominance()
		// Size the AS's IPv4 prefix for routers plus any edge population.
		addrBudget := total*8 + 64
		if a.Kind == ASEyeball {
			addrBudget += g.cfg.CPEDevices / g.cfg.EyeballASes * 5
		}
		if a.Kind == ASHosting {
			addrBudget += g.cfg.Servers / g.cfg.HostingASes * 2
		}
		a.V4Prefixes = append(a.V4Prefixes, g.allocV4Prefix(addrBudget*g.cfg.PrefixSlack))
		p6 := g.allocV6Prefix()
		a.V6Prefixes = append(a.V6Prefixes, p6)

		mustRespond := responsive
		for ri := 0; ri < total; ri++ {
			vendor := a.DominantVendor
			if g.r.Float64() >= dom {
				vendor = g.pickRouterVendor(a.Region)
			}
			d := g.newDevice(ClassRouter, Profiles[vendor], a.Number)
			// Honour the responsive budget: the first `responsive` routers
			// respond, the rest are dark.
			if mustRespond > 0 {
				d.Responds = true
				mustRespond--
			} else {
				d.Responds = false
			}
			nIf := g.interfaceCount()
			u := g.r.Float64()
			switch {
			case u < g.cfg.V6OnlyRouterProb:
				g.assignV6(d, p6, nIf)
			case u < g.cfg.V6OnlyRouterProb+g.cfg.DualStackRouterProb:
				g.assignV4(d, a, nIf)
				g.assignV6(d, p6, max(1, nIf/2))
			default:
				g.assignV4(d, a, nIf)
			}
			g.finishDevice(d, a)
		}
	}
}

func (g *generator) genServers() {
	hosting := g.hostingASes()
	for i := 0; i < g.cfg.Servers; i++ {
		a := hosting[g.r.Intn(len(hosting))]
		d := g.newDevice(ClassServer, Profiles["Net-SNMP"], a.Number)
		d.Responds = true // reachable by construction; density is set by count
		g.assignV4(d, a, 1+g.r.Intn(2))
		if g.r.Float64() < 0.15 {
			g.assignV6(d, a.V6Prefixes[0], 1)
		}
		g.finishDevice(d, a)
	}
}

func (g *generator) genCPE() {
	eyeball := g.eyeballASes()
	for i := 0; i < g.cfg.CPEDevices; i++ {
		a := eyeball[g.r.Intn(len(eyeball))]
		d := g.newDevice(ClassCPE, Profiles[g.pickCPEVendor()], a.Number)
		d.Responds = true
		// A slice of the edge population holds many addresses (access
		// concentrators, CMTS/DSLAM gateways, NAT pools): these produce the
		// large non-router alias sets behind the paper's 10.6 IPs per
		// non-singleton set.
		nIPs := 1
		if g.r.Float64() < 0.12 {
			nIPs = 2 + int(g.r.ExpFloat64()*20)
			if nIPs > 300 {
				nIPs = 300
			}
		}
		g.assignV4(d, a, nIPs)
		g.finishDevice(d, a)
	}
	// IPv6 CPE: hitlist-reachable, heavily churning.
	for i := 0; i < g.cfg.V6CPE; i++ {
		a := eyeball[g.r.Intn(len(eyeball))]
		d := g.newDevice(ClassCPE, Profiles[g.pickCPEVendor()], a.Number)
		d.Responds = true
		d.Quirk = v6CPEQuirks.draw(g.r)
		d.FlipAt = g.cfg.StartTime.Add(12*24*time.Hour + 12*time.Hour)
		g.applyQuirkDetails(d)
		d.InHitlist = true
		g.assignV6(d, a.V6Prefixes[0], 1)
		g.finishDevice(d, a)
	}
}

// iotVendors is the exposed-IoT vendor mix (cameras, DVRs, NAS).
var iotVendors = []string{"TP-Link", "D-Link", "ZyXEL", "Ubiquiti", "MikroTik", "Netgear"}

func (g *generator) genIoT() {
	eyeball := g.eyeballASes()
	for i := 0; i < g.cfg.IoTDevices; i++ {
		a := eyeball[g.r.Intn(len(eyeball))]
		d := g.newDevice(ClassIoT, Profiles[iotVendors[g.r.Intn(len(iotVendors))]], a.Number)
		d.Responds = true
		g.assignV4(d, a, 1)
		g.finishDevice(d, a)
	}
}

func (g *generator) hostingASes() []*AS {
	var out []*AS
	for _, a := range g.w.ASes {
		if a.Kind == ASHosting {
			out = append(out, a)
		}
	}
	return out
}

func (g *generator) eyeballASes() []*AS {
	var out []*AS
	for _, a := range g.w.ASes {
		if a.Kind == ASEyeball {
			out = append(out, a)
		}
	}
	return out
}

// finishDevice gives the device its engine identity, PTR records, and
// dataset memberships, then registers it.
func (g *generator) finishDevice(d *Device, a *AS) {
	d.EngineID = g.genEngineID(d)
	if d.Quirk == QuirkChurn {
		d.AltEngineID = g.genEngineID(d)
		d.AltBoots = g.boots()
		d.AltBootTime = g.bootTime()
	}
	if d.Router() {
		d.InITDK = g.r.Float64() < 0.80
		d.InAtlas = g.r.Float64() < 0.25
		if len(d.V6) > 0 {
			d.InHitlist = g.r.Float64() < 0.70
		}
		if a.RDNSDomain != "" && g.r.Float64() < 0.50 {
			host := fmt.Sprintf("rtr%d.%s%d", d.ID, cityCodes[g.r.Intn(len(cityCodes))], g.r.Intn(10))
			// Not every interface has a PTR record (the paper excludes
			// those), so name-based alias sets stay partial.
			for i, addr := range d.V4 {
				if g.r.Float64() < 0.55 {
					g.w.ptr[addr] = fmt.Sprintf("if%d.%s.%s", i, host, a.RDNSDomain)
				}
			}
			for i, addr := range d.V6 {
				if g.r.Float64() < 0.55 {
					g.w.ptr[addr] = fmt.Sprintf("v6if%d.%s.%s", i, host, a.RDNSDomain)
				}
			}
		}
	}
	g.w.Devices = append(g.w.Devices, d)
}

var cityCodes = []string{"par", "fra", "ams", "lon", "nyc", "sjc", "sin", "hkg", "syd", "gru", "jnb", "waw"}

// genEngineID builds the device's engine ID per its vendor profile, with
// the small malformed populations the filtering pipeline must catch.
func (g *generator) genEngineID(d *Device) []byte {
	if d.Quirk == QuirkShortEngineID {
		id := make([]byte, 1+g.r.Intn(3))
		g.r.Read(id)
		return id
	}
	scheme := g.drawScheme(d.Profile)
	for attempt := 0; ; attempt++ {
		id := g.buildEngineID(d, scheme)
		key := string(id)
		if !g.usedEngineIDs[key] {
			g.usedEngineIDs[key] = true
			return id
		}
		// Deterministic schemes (IPv4/text) can collide; fall back to MAC
		// after a few tries.
		if attempt > 3 {
			scheme = SchemeMAC
		}
	}
}

func (g *generator) drawScheme(p *Profile) EngineIDScheme {
	u := g.r.Float64()
	for _, ws := range p.Schemes {
		if u < ws.Weight {
			return ws.Scheme
		}
		u -= ws.Weight
	}
	return SchemeMAC
}

func (g *generator) buildEngineID(d *Device, scheme EngineIDScheme) []byte {
	ent := d.Profile.Enterprise
	switch scheme {
	case SchemeMAC:
		var mac [6]byte
		if len(d.Profile.OUIs) > 0 && g.r.Float64() > 0.004 {
			o := d.Profile.OUIs[g.r.Intn(len(d.Profile.OUIs))]
			mac[0], mac[1], mac[2] = o[0], o[1], o[2]
		} else {
			// Unregistered OUI (paper: 113k filtered): random locally
			// administered block.
			mac[0] = 0x02
			mac[1] = byte(g.r.Intn(256))
			mac[2] = byte(g.r.Intn(256))
		}
		mac[3], mac[4], mac[5] = byte(g.r.Intn(256)), byte(g.r.Intn(256)), byte(g.r.Intn(256))
		return engineid.NewMAC(ent, mac)
	case SchemeIPv4:
		var a4 [4]byte
		if len(d.V4) > 0 && g.r.Float64() > 0.06 {
			a4 = d.V4[0].As4()
		} else if g.r.Float64() < 0.7 {
			// Unroutable body (paper: 68k filtered): private address.
			a4 = [4]byte{192, 168, byte(g.r.Intn(256)), byte(g.r.Intn(256))}
		} else if len(d.V4) == 0 {
			// IPv6-only device whose engine ID leaks its internal IPv4
			// (the paper's dual-stack signal: 15% of IPv6-scan engine IDs
			// contain IPv4 addresses).
			a4 = [4]byte{100, 127, byte(g.r.Intn(256)), byte(g.r.Intn(256))}
		}
		return engineid.NewIPv4(ent, a4)
	case SchemeIPv6:
		var a16 [16]byte
		if len(d.V6) > 0 {
			a16 = d.V6[0].As16()
		}
		return engineid.NewIPv6(ent, a16)
	case SchemeText:
		return engineid.NewText(ent, fmt.Sprintf("dev%d-as%d", d.ID, d.ASN))
	case SchemeOctets:
		// Fully random: relative Hamming weight centers on 0.5 (Figure 6).
		body := make([]byte, 8)
		g.r.Read(body)
		return engineid.NewOctets(ent, body)
	case SchemeNetSNMP:
		var body [8]byte
		g.r.Read(body[:])
		return engineid.NewNetSNMP(body)
	case SchemeNonConforming:
		// Structured junk with a zero-skewed bit distribution: a format
		// byte followed by a mostly-low-entropy tail (Figure 6's positive
		// skew).
		body := make([]byte, 8)
		body[0] = 0x03
		for i := 1; i < len(body); i++ {
			var b byte
			for bit := 0; bit < 8; bit++ {
				if g.r.Float64() < 0.30 {
					b |= 1 << bit
				}
			}
			body[i] = b
		}
		return engineid.NewNonConforming(body)
	}
	return engineid.NewMAC(ent, [6]byte{2, 0, 0, 1, 2, 3})
}

// genSpecialPopulations overrides engine IDs for the bug and promiscuous
// device groups after normal generation.
func (g *generator) genSpecialPopulations() {
	// The Cisco CSCts87275 bug population: CPE-class Cisco devices all
	// reporting the constant zero-MAC engine ID.
	bugID := []byte{0x80, 0x00, 0x00, 0x09, 0x03, 0, 0, 0, 0, 0, 0, 0}
	eyeball := g.eyeballASes()
	for i := 0; i < g.cfg.BugDevices; i++ {
		a := eyeball[g.r.Intn(len(eyeball))]
		d := g.newDevice(ClassCPE, Profiles["Cisco"], a.Number)
		d.Responds = true
		d.Quirk = QuirkNone
		d.EngineID = bugID
		g.assignV4(d, a, 1)
		g.w.Devices = append(g.w.Devices, d)
	}
	// Shared engine IDs within one vendor (cloned firmware images): these
	// survive the promiscuity filter, and only the (last reboot, boots)
	// tuple keeps alias resolution from merging them -- the Section 4.3
	// motivation and the Figure 7 top engine IDs whose reboot times span
	// years.
	for grp := 0; grp < g.cfg.SharedIDGroups; grp++ {
		vendor := []string{"Huawei", "Netgear", "Thomson"}[grp%3]
		p := Profiles[vendor]
		var mac [6]byte
		o := p.OUIs[g.r.Intn(len(p.OUIs))]
		mac[0], mac[1], mac[2] = o[0], o[1], o[2]
		mac[3], mac[4], mac[5] = byte(g.r.Intn(256)), byte(g.r.Intn(256)), byte(g.r.Intn(256))
		sharedID := engineid.NewMAC(p.Enterprise, mac)
		for i := 0; i < g.cfg.SharedIDPerGroup; i++ {
			a := eyeball[g.r.Intn(len(eyeball))]
			d := g.newDevice(ClassCPE, p, a.Number)
			d.Responds = true
			d.Quirk = QuirkNone
			d.EngineID = sharedID
			g.assignV4(d, a, 1)
			g.w.Devices = append(g.w.Devices, d)
		}
	}
	// Promiscuous engine IDs: one value reused by devices of *different*
	// vendors (default configs, cloned images).
	vendors := []string{"Netgear", "Thomson", "Broadcom", "D-Link", "ZyXEL", "TP-Link"}
	for grp := 0; grp < g.cfg.PromiscuousGroups; grp++ {
		body := make([]byte, 8)
		g.r.Read(body)
		for i := 0; i < g.cfg.PromiscuousPerGroup; i++ {
			a := eyeball[g.r.Intn(len(eyeball))]
			vendor := vendors[(grp+i)%len(vendors)]
			d := g.newDevice(ClassCPE, Profiles[vendor], a.Number)
			d.Responds = true
			d.Quirk = QuirkNone
			// Same body under each vendor's own enterprise header: the
			// promiscuity check keys on the engine ID *data* recurring
			// across enterprises.
			d.EngineID = engineid.NewOctets(d.Profile.Enterprise, body)
			g.assignV4(d, a, 1)
			g.w.Devices = append(g.w.Devices, d)
		}
	}
	// Load-balanced VIPs: one IP fronting a pool of Net-SNMP backends.
	hosting := g.hostingASes()
	for i := 0; i < g.cfg.LoadBalancers; i++ {
		a := hosting[g.r.Intn(len(hosting))]
		d := g.newDevice(ClassServer, Profiles["Net-SNMP"], a.Number)
		d.Responds = true
		d.Quirk = QuirkLoadBalancer
		poolSize := 2 + g.r.Intn(3)
		for p := 0; p < poolSize; p++ {
			var body [8]byte
			g.r.Read(body[:])
			d.Pool = append(d.Pool, PoolIdentity{
				EngineID: engineid.NewNetSNMP(body),
				Boots:    g.boots(),
				BootTime: g.bootTime(),
			})
		}
		d.EngineID = d.Pool[0].EngineID
		g.assignV4(d, a, 1)
		g.w.Devices = append(g.w.Devices, d)
	}
	// A few amplifiers (Section 8: 48 addresses returned >1000 responses).
	for i := 0; i < 3; i++ {
		a := eyeball[g.r.Intn(len(eyeball))]
		d := g.newDevice(ClassCPE, Profiles["Broadcom"], a.Number)
		d.Responds = true
		d.Quirk = QuirkAmplify
		d.DupCount = 1000 + g.r.Intn(4000)
		d.EngineID = g.genEngineID(d)
		g.assignV4(d, a, 1)
		g.w.Devices = append(g.w.Devices, d)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
