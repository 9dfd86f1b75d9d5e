package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/netip"
	"net/url"
	"slices"
	"sync"
	"time"

	"snmpv3fp/internal/iputil"
	"snmpv3fp/internal/serve"
)

// Request classes, indexing queryClasses.
const (
	classIPCold uint8 = iota
	classIPWarm
	classIPMiss
	classDevice
	classReboots
	classVendors
	classStats
)

// mixEntry gives one class a share of the requests, in tenths of a percent.
type mixEntry struct {
	class  uint8
	permil int
}

// staticMix is the read-tier mix: mostly /v1/ip over a working set larger
// than both caches, a hot set that fits, keys that are not there, and a tail
// of the heavier endpoints.
var staticMix = []mixEntry{
	{classIPCold, 600},
	{classIPWarm, 200},
	{classIPMiss, 100},
	{classReboots, 50},
	{classDevice, 40},
	{classVendors, 5},
	{classStats, 5},
}

// liveMix is the reader beside a writer: uniform /v1/ip plus the one
// endpoint that walks the alias sets every version rebuilds.
var liveMix = []mixEntry{
	{classIPCold, 900},
	{classVendors, 100},
}

const hotSetSize = 1024

// targets holds the pre-rendered request paths of one store build, so the
// closed loop spends its time in the handler and not in fmt.
type targets struct {
	ips     []netip.Addr // every tracked IP, address order
	ipPaths []string     // /v1/ip/<ips[i]>
	reboots []string     // /v1/reboots/<ips[i]>
	hot     []int        // indexes into ips: the warm set
	misses  []string     // /v1/ip/<never observed>
	// missAddrs are the never-observed addresses behind misses.
	missAddrs []netip.Addr
	devices   []string // /v1/device/<engine id>
}

// newTargets derives the request universe from what the campaigns observed.
// Misses are half silent addresses inside the scanned prefixes and half
// addresses outside every prefix (240/4 is never allocated).
func newTargets(seed int64, ips []netip.Addr, engines []string, prefixes []netip.Prefix) *targets {
	rng := rand.New(rand.NewSource(seed ^ 0x7a11))
	t := &targets{ips: ips}
	tracked := make(map[netip.Addr]struct{}, len(ips))
	for _, ip := range ips {
		s := ip.String()
		t.ipPaths = append(t.ipPaths, "/v1/ip/"+s)
		t.reboots = append(t.reboots, "/v1/reboots/"+s)
		tracked[ip] = struct{}{}
	}
	perm := rng.Perm(len(ips))
	t.hot = perm[:min(hotSetSize, len(perm))]
	for len(t.misses) < hotSetSize {
		var a netip.Addr
		if len(t.misses)%2 == 0 {
			p := prefixes[rng.Intn(len(prefixes))]
			a = iputil.NthAddr(p, uint64(rng.Int63n(int64(iputil.PrefixSize(p)))))
			if _, ok := tracked[a]; ok {
				continue
			}
		} else {
			a = netip.AddrFrom4([4]byte{240, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
		}
		t.misses = append(t.misses, "/v1/ip/"+a.String())
		t.missAddrs = append(t.missAddrs, a)
	}
	for _, e := range engines {
		t.devices = append(t.devices, "/v1/device/"+e)
	}
	return t
}

// sink is the discarding http.ResponseWriter of the in-process loop. It
// keeps the body only when capture is set, for the sampled checks.
type sink struct {
	h       http.Header
	status  int
	n       int
	capture bool
	body    bytes.Buffer
}

func (s *sink) Header() http.Header { return s.h }
func (s *sink) WriteHeader(c int)   { s.status = c }
func (s *sink) Write(p []byte) (int, error) {
	if s.capture {
		s.body.Write(p)
	}
	s.n += len(p)
	return len(p), nil
}

// checkEvery is how often a request's body is decoded and compared with
// the store's own answer.
const checkEvery = 256

// queryResult is what one closed-loop phase observed.
type queryResult struct {
	requests  []requestSpan
	wall      time.Duration
	bytesOut  int64
	attempted int
	failed    int
	// versions counts the distinct store versions the clients saw, which
	// is how many times a snapshot was rebuilt under them.
	versions int
	notes    []string
}

// querier runs the closed loop against one server.
type querier struct {
	srv   *serve.Server
	src   serve.Source
	tg    *targets
	mix   []mixEntry
	epoch time.Time // request span times are relative to this
}

// run issues requests from `clients` goroutines, each waiting for its reply
// before sending the next. With n > 0 each client sends n/clients requests;
// with n == 0 clients loop until stop closes.
func (q *querier) run(seed int64, clients, n int, stop <-chan struct{}) queryResult {
	results := make([]queryResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = q.client(seed+int64(c)*7919, n/clients, stop)
		}(c)
	}
	wg.Wait()
	out := queryResult{wall: time.Since(start)}
	for _, r := range results {
		out.requests = append(out.requests, r.requests...)
		out.bytesOut += r.bytesOut
		out.attempted += r.attempted
		out.failed += r.failed
		out.versions = max(out.versions, r.versions)
		out.notes = append(out.notes, r.notes...)
	}
	return out
}

func (q *querier) client(seed int64, n int, stop <-chan struct{}) queryResult {
	rng := rand.New(rand.NewSource(seed))
	res := queryResult{requests: make([]requestSpan, 0, max(n, 1<<16))}
	w := &sink{h: make(http.Header)}
	req := getRequest("")
	fail := func(format string, args ...any) {
		res.failed++
		if len(res.notes) < 5 {
			res.notes = append(res.notes, fmt.Sprintf(format, args...))
		}
	}
	// Only the reader beside a writer follows the store's version; the
	// other loops ask for a snapshot on sampled requests alone.
	live := stop != nil
	var lastVersion uint64
	for i := 0; n == 0 || i < n; i++ {
		if n == 0 {
			select {
			case <-stop:
				return res
			default:
			}
		}
		class, path, ip := q.pick(rng)
		sampled := i%checkEvery == 0 && class <= classIPMiss
		var before uint64
		if sampled {
			before = q.src.Snapshot().Stats().Version
		}
		w.status, w.n, w.capture = 0, 0, sampled
		w.body.Reset()
		// A fresh URL per request, as a real server would hand the handler;
		// the mux stores its match on the request, which is reused.
		req.URL = &url.URL{Path: path}
		t0 := time.Now()
		q.srv.ServeHTTP(w, req)
		d := time.Since(t0)
		res.requests = append(res.requests, requestSpan{start: int64(t0.Sub(q.epoch)), dur: int32(d), class: class})
		res.bytesOut += int64(w.n)
		res.attempted++

		want := http.StatusOK
		if class == classIPMiss {
			want = http.StatusNotFound
		}
		if got := statusOf(w); got != want {
			fail("%s: status %d, want %d", path, got, want)
			continue
		}
		if !live && !sampled {
			continue
		}
		v := q.src.Snapshot()
		version := v.Stats().Version
		if version < lastVersion {
			fail("store version went backwards: %d after %d", version, lastVersion)
		}
		if live && version != lastVersion {
			res.versions++
		}
		lastVersion = version
		if !sampled || version != before {
			continue // unsampled, or the store moved under the request
		}
		res.attempted++
		if class == classIPMiss {
			var e serve.WireError
			if err := json.Unmarshal(w.body.Bytes(), &e); err != nil || e.Error.Code != serve.ErrCodeNotFound {
				fail("%s: miss body is not the not_found envelope: %q", path, w.body.Bytes())
			}
			continue
		}
		var got serve.WireIP
		latest, ok := v.Latest(ip)
		if err := json.Unmarshal(w.body.Bytes(), &got); err != nil {
			fail("%s: body does not decode: %v", path, err)
		} else if !ok || got.Latest.Campaign != latest.Campaign || got.Latest.EngineID != hex.EncodeToString(latest.EngineID) ||
			got.Latest.Boots != latest.Boots || got.Latest.EngineTime != latest.EngineTime {
			fail("%s: body disagrees with View.Latest", path)
		}
	}
	return res
}

// getRequest is the GET the in-process loop hands Server.ServeHTTP.
func getRequest(path string) *http.Request {
	return &http.Request{Method: http.MethodGet, URL: &url.URL{Path: path}, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Host: "bench"}
}

func statusOf(w *sink) int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// pick draws the next request: its class, path and (for /v1/ip hits) the
// address asked about.
func (q *querier) pick(rng *rand.Rand) (uint8, string, netip.Addr) {
	u := rng.Intn(1000)
	class := q.mix[len(q.mix)-1].class
	for _, m := range q.mix {
		if u < m.permil {
			class = m.class
			break
		}
		u -= m.permil
	}
	tg := q.tg
	switch class {
	case classIPCold:
		i := rng.Intn(len(tg.ips))
		return class, tg.ipPaths[i], tg.ips[i]
	case classIPWarm:
		i := tg.hot[rng.Intn(len(tg.hot))]
		return class, tg.ipPaths[i], tg.ips[i]
	case classIPMiss:
		return class, tg.misses[rng.Intn(len(tg.misses))], netip.Addr{}
	case classDevice:
		return class, tg.devices[rng.Intn(len(tg.devices))], netip.Addr{}
	case classReboots:
		return class, tg.reboots[rng.Intn(len(tg.reboots))], netip.Addr{}
	case classVendors:
		return class, "/v1/vendors", netip.Addr{}
	default:
		return class, "/v1/stats", netip.Addr{}
	}
}

// latencies splits request durations by class and sorts each; index
// len(queryClasses) holds the whole mix.
func latencies(reqs []requestSpan) [][]int64 {
	out := make([][]int64, len(queryClasses)+1)
	for _, r := range reqs {
		out[r.class] = append(out[r.class], int64(r.dur))
		out[len(queryClasses)] = append(out[len(queryClasses)], int64(r.dur))
	}
	for _, l := range out {
		slices.Sort(l)
	}
	return out
}
