package serve

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strconv"
	"strings"
	"testing"
	"time"

	"snmpv3fp/internal/alias"
	"snmpv3fp/internal/core"
	"snmpv3fp/internal/filter"
	"snmpv3fp/internal/obs"
	"snmpv3fp/internal/store"
)

var t0 = time.Date(2021, 4, 16, 0, 0, 0, 0, time.UTC)

func engID(enterprise uint32, body ...byte) []byte {
	id := []byte{byte(0x80 | enterprise>>24), byte(enterprise >> 16), byte(enterprise >> 8), byte(enterprise), 5}
	return append(id, body...)
}

func mkObs(ip string, id []byte, boots, etime int64, at time.Time) *core.Observation {
	return &core.Observation{
		IP:          netip.MustParseAddr(ip),
		EngineID:    id,
		EngineBoots: boots,
		EngineTime:  etime,
		ReceivedAt:  at,
		Packets:     1,
	}
}

func mkCampaign(obs ...*core.Observation) *core.Campaign {
	c := &core.Campaign{ByIP: map[netip.Addr]*core.Observation{}}
	for _, o := range obs {
		c.ByIP[o.IP] = o
		c.TotalPackets += o.Packets
	}
	return c
}

// mustIngest ingests each campaign in turn, failing the test on error.
func mustIngest(t testing.TB, st *store.Store, cs ...*core.Campaign) {
	t.Helper()
	for _, c := range cs {
		if _, err := st.Ingest(context.Background(), c); err != nil {
			t.Fatal(err)
		}
	}
}

// seedStore ingests two small campaigns: one two-IP device, one singleton.
func seedStore(t *testing.T) (*store.Store, *core.Campaign, *core.Campaign) {
	t.Helper()
	idA := engID(9, 0xAA, 0xBB, 0xCC, 0xDD)
	idB := engID(2636, 0x11, 0x22, 0x33, 0x44)
	day := 24 * time.Hour
	c1 := mkCampaign(
		mkObs("192.0.2.1", idA, 2, 1000, t0),
		mkObs("192.0.2.2", idA, 2, 1000, t0),
		mkObs("192.0.2.3", idB, 5, 500, t0),
	)
	c2 := mkCampaign(
		mkObs("192.0.2.1", idA, 2, 1000+86400, t0.Add(day)),
		mkObs("192.0.2.2", idA, 2, 1000+86400, t0.Add(day)),
		mkObs("192.0.2.3", idB, 6, 100, t0.Add(day)), // rebooted: boots mismatch, filtered
	)
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	mustIngest(t, st, c1, c2)
	return st, c1, c2
}

func get(t *testing.T, ts *httptest.Server, path string, wantCode int, out any) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: code %d (want %d): %s", path, resp.StatusCode, wantCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content type %q", path, ct)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, body)
		}
	}
	return body
}

func TestEndpoints(t *testing.T) {
	st, c1, c2 := seedStore(t)
	ts := httptest.NewServer(New(st).Handler())
	defer ts.Close()

	var ip WireIP
	get(t, ts, "/v1/ip/192.0.2.1", http.StatusOK, &ip)
	if ip.Latest.Campaign != 2 || ip.Latest.Boots != 2 || len(ip.History) != 2 {
		t.Fatalf("bad /v1/ip payload: %+v", ip)
	}
	if ip.Vendor.Vendor != "Cisco" {
		t.Fatalf("vendor: %+v", ip.Vendor)
	}

	idA := hex.EncodeToString(engID(9, 0xAA, 0xBB, 0xCC, 0xDD))
	var dev WireDevice
	get(t, ts, "/v1/device/"+idA, http.StatusOK, &dev)
	if len(dev.AliasSets) != 1 || dev.AliasSets[0].Size() != 2 {
		t.Fatalf("alias sets: %+v", dev.AliasSets)
	}
	if len(dev.EverIPs) != 2 {
		t.Fatalf("ever ips: %+v", dev.EverIPs)
	}

	// The filtered-out device (boots mismatch) still has its all-time index.
	idB := hex.EncodeToString(engID(2636, 0x11, 0x22, 0x33, 0x44))
	get(t, ts, "/v1/device/"+idB, http.StatusOK, &dev)
	if len(dev.AliasSets) != 0 || len(dev.EverIPs) != 1 {
		t.Fatalf("filtered device: %+v", dev)
	}

	var vendors WireVendors
	get(t, ts, "/v1/vendors", http.StatusOK, &vendors)
	if vendors.Campaigns != 2 || vendors.Sets != 1 {
		t.Fatalf("vendors: %+v", vendors)
	}

	var reboots WireReboots
	get(t, ts, "/v1/reboots/192.0.2.3", http.StatusOK, &reboots)
	if len(reboots.Samples) != 2 || reboots.Reboots != 1 || reboots.Availability != 1 {
		t.Fatalf("reboots: %+v", reboots)
	}
	if reboots.Events[0] != "reboot" {
		t.Fatalf("events: %+v", reboots.Events)
	}

	var stats WireStats
	get(t, ts, "/v1/stats", http.StatusOK, &stats)
	if stats.Store.Campaigns != 2 || stats.Store.Ingested != uint64(len(c1.ByIP)+len(c2.ByIP)) {
		t.Fatalf("stats: %+v", stats.Store)
	}
	if stats.Serve["ip"] != 1 || stats.Serve["device"] != 2 || stats.Serve["vendors"] != 1 {
		t.Fatalf("serve counters: %+v", stats.Serve)
	}

	// Error paths.
	get(t, ts, "/v1/ip/not-an-ip", http.StatusBadRequest, nil)
	get(t, ts, "/v1/ip/198.51.100.99", http.StatusNotFound, nil)
	get(t, ts, "/v1/device/zz", http.StatusBadRequest, nil)
	get(t, ts, "/v1/device/deadbeef", http.StatusNotFound, nil)
	get(t, ts, "/v1/reboots/198.51.100.99", http.StatusNotFound, nil)
}

// TestErrorEnvelope asserts every failing endpoint speaks the versioned
// envelope {"error":{"code","message"}} with a stable machine-readable code.
func TestErrorEnvelope(t *testing.T) {
	st, _, _ := seedStore(t)
	ts := httptest.NewServer(New(st))
	defer ts.Close()
	cases := []struct {
		path   string
		status int
		code   string
	}{
		{"/v1/ip/not-an-ip", http.StatusBadRequest, ErrCodeBadRequest},
		{"/v1/ip/198.51.100.99", http.StatusNotFound, ErrCodeNotFound},
		{"/v1/device/zz", http.StatusBadRequest, ErrCodeBadRequest},
		{"/v1/device/deadbeef", http.StatusNotFound, ErrCodeNotFound},
		{"/v1/reboots/not-an-ip", http.StatusBadRequest, ErrCodeBadRequest},
		{"/no/such/endpoint", http.StatusNotFound, ErrCodeNotFound},
	}
	for _, tc := range cases {
		var env WireError
		get(t, ts, tc.path, tc.status, &env)
		if env.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.path, env.Error.Code, tc.code)
		}
		if env.Error.Message == "" {
			t.Errorf("%s: empty error message", tc.path)
		}
	}
}

// parseExposition maps each sample line of a Prometheus text exposition to
// its value, and collects the `# TYPE` declarations.
func parseExposition(t *testing.T, body string) (samples map[string]float64, types map[string]string) {
	t.Helper()
	samples = map[string]float64{}
	types = map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
				types[f[2]] = f[3]
			}
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable exposition line: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples, types
}

// TestMetricsEndpoint drives traffic through the API and checks that
// /v1/metrics serves a parseable exposition whose per-endpoint counters and
// latency histograms reconcile with the requests actually made.
func TestMetricsEndpoint(t *testing.T) {
	st, _, _ := seedStore(t)
	reg := obs.NewRegistry()
	ts := httptest.NewServer(New(st, WithObs(reg)))
	defer ts.Close()

	get(t, ts, "/v1/vendors", http.StatusOK, nil)
	get(t, ts, "/v1/vendors", http.StatusOK, nil)
	get(t, ts, "/v1/ip/not-an-ip", http.StatusBadRequest, nil)

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metricsContentType {
		t.Fatalf("metrics content type %q, want %q", ct, metricsContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	samples, types := parseExposition(t, string(body))
	if types["snmpfp_http_requests_total"] != "counter" {
		t.Fatalf("requests family type %q", types["snmpfp_http_requests_total"])
	}
	if types["snmpfp_http_request_duration_seconds"] != "histogram" {
		t.Fatalf("duration family type %q", types["snmpfp_http_request_duration_seconds"])
	}
	if got := samples[`snmpfp_http_requests_total{endpoint="vendors"}`]; got != 2 {
		t.Fatalf("vendors requests %v, want 2", got)
	}
	if got := samples[`snmpfp_http_requests_total{endpoint="ip"}`]; got != 1 {
		t.Fatalf("ip requests %v, want 1", got)
	}
	if got := samples[`snmpfp_http_request_duration_seconds_count{endpoint="vendors"}`]; got != 2 {
		t.Fatalf("vendors latency count %v, want 2", got)
	}
	// The scrape itself was counted before the handler wrote the body.
	if got := samples[`snmpfp_http_requests_total{endpoint="metrics"}`]; got != 1 {
		t.Fatalf("metrics requests %v, want 1", got)
	}
	// The served registry is the one passed via WithObs.
	if got := reg.Value("snmpfp_http_requests_total", obs.L("endpoint", "vendors")); got != 2 {
		t.Fatalf("registry vendors requests %v, want 2", got)
	}
}

// TestMetricsDefaultRegistry: /v1/metrics works without WithObs.
func TestMetricsDefaultRegistry(t *testing.T) {
	st, _, _ := seedStore(t)
	ts := httptest.NewServer(New(st))
	defer ts.Close()
	get(t, ts, "/v1/stats", http.StatusOK, nil)
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: code %d", resp.StatusCode)
	}
	samples, _ := parseExposition(t, string(body))
	if got := samples[`snmpfp_http_requests_total{endpoint="stats"}`]; got != 1 {
		t.Fatalf("stats requests %v, want 1", got)
	}
}

// TestVendorsAndAliasesMatchBatchOverHTTP asserts the acceptance criterion
// at the wire level: the served alias-set and vendor JSON is byte-identical
// to the batch pipeline's output serialized the same way.
func TestVendorsAndAliasesMatchBatchOverHTTP(t *testing.T) {
	st, c1, c2 := seedStore(t)
	ts := httptest.NewServer(New(st).Handler())
	defer ts.Close()

	rep := filter.Run(c1, c2)
	sets := alias.Resolve(rep.Valid, alias.Default)
	tally := map[string]int{}
	var wantSets []store.AliasSet
	for _, s := range sets {
		fp := core.FingerprintEngineID(s.Members[0].EngineID)
		as := store.AliasSet{
			EngineID: fmt.Sprintf("%x", s.Members[0].EngineID),
			Vendor:   fp.VendorLabel(),
		}
		for _, m := range s.Members {
			as.IPs = append(as.IPs, m.IP)
		}
		wantSets = append(wantSets, as)
		tally[fp.VendorLabel()]++
	}

	var vendors WireVendors
	get(t, ts, "/v1/vendors", http.StatusOK, &vendors)
	if len(vendors.Vendors) != len(tally) {
		t.Fatalf("vendor rows: got %d want %d", len(vendors.Vendors), len(tally))
	}
	for _, vc := range vendors.Vendors {
		if tally[vc.Vendor] != vc.Devices {
			t.Fatalf("vendor %q: got %d want %d", vc.Vendor, vc.Devices, tally[vc.Vendor])
		}
	}

	for _, want := range wantSets {
		var dev WireDevice
		get(t, ts, "/v1/device/"+want.EngineID, http.StatusOK, &dev)
		gotJSON, _ := json.Marshal(dev.AliasSets)
		wantJSON, _ := json.Marshal([]store.AliasSet{want})
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("set %s diverges:\n got %s\nwant %s", want.EngineID, gotJSON, wantJSON)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	st, _, _ := seedStore(t)
	ts := httptest.NewServer(New(st))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/vendors", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST: code %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Fatalf("Allow header %q, want GET", allow)
	}
	var env WireError
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("405 body is not the error envelope: %v", err)
	}
	if env.Error.Code != ErrCodeMethodNotAllowed {
		t.Fatalf("405 code %q", env.Error.Code)
	}
}
