// Package serve exposes a fingerprint store over an HTTP JSON API — the
// query side of cmd/snmpfpd. Every handler works on one store.View
// snapshot, so each response is internally consistent (its alias sets,
// tallies and stats all describe the same instant) no matter how much
// ingest happens concurrently.
//
// Endpoints:
//
//	GET /v1/ip/{addr}          current identity + full observation history
//	                           (?protocol= selects a probe module's evidence)
//	GET /v1/device/{engineID}  alias sets + every IP ever seen for the device
//	GET /v1/vendors            devices per vendor over the latest pair
//	GET /v1/reboots/{addr}     longitudinal reboot timeline and events
//	GET /v1/fusion             cross-protocol alias fusion report
//	                           (?protocols= restricts the fused evidence)
//	GET /v1/stats              store and server counters
//	GET /v1/metrics            Prometheus text exposition of the obs registry
//
// Errors share one versioned JSON envelope, {"error":{"code","message"}},
// with stable machine-readable codes (ErrCodeBadRequest and friends).
//
// A request takes one store.View snapshot, the same for its result-cache
// key and its handler; per-endpoint request counters and latency histograms
// land in the configured obs.Registry (WithObs), which /v1/metrics re-serves.
package serve

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snmpv3fp/internal/core"
	"snmpv3fp/internal/fusion"
	"snmpv3fp/internal/lru"
	"snmpv3fp/internal/obs"
	"snmpv3fp/internal/probe"
	"snmpv3fp/internal/store"
)

// timeLayout renders timestamps as the records package does.
const timeLayout = time.RFC3339Nano

// Source is anything that can produce consistent store snapshots — a
// primary *store.Store or a read-only *store.Replica. A request takes one
// snapshot: the view its cache key names is the view its handler reads.
type Source interface {
	Snapshot() *store.View
}

// defaultResultCacheBytes bounds the hot-response cache.
const defaultResultCacheBytes = 32 << 20

// Server routes API requests to a store.
type Server struct {
	st  Source
	mux *http.ServeMux
	reg *obs.Registry

	// results caches encoded 200 bodies of the view-pure endpoints
	// (/v1/ip, /v1/device, /v1/vendors, /v1/reboots, /v1/fusion), keyed by
	// (view generation, path, query), so a burst of identical queries
	// between ingests costs one snapshot walk and one JSON encode.
	results *lru.Cache[[]byte]

	reqIP, reqDevice, reqVendors, reqReboots, reqStats, reqMetrics atomic.Uint64
	reqFusion                                                      atomic.Uint64
	errors                                                         atomic.Uint64
}

// Option configures a Server.
type Option func(*Server)

// WithObs attaches a metrics registry: per-endpoint request counters and
// latency histograms are recorded into it, and /v1/metrics serves its full
// exposition (including any scanner/store/netsim families other layers
// registered on the same registry). Without this option the server keeps a
// private registry, so /v1/metrics always works.
func WithObs(reg *obs.Registry) Option {
	return func(s *Server) {
		if reg != nil {
			s.reg = reg
		}
	}
}

// handlerFunc is an API handler: the request context is passed explicitly
// so cancellation propagates without each handler re-deriving it.
type handlerFunc func(ctx context.Context, w http.ResponseWriter, r *http.Request)

// viewHandler is a view-pure handler: its 200 body is a function of the
// view and the URL alone.
type viewHandler func(v *store.View, w http.ResponseWriter, r *http.Request)

// New builds a server over a snapshot source — a primary store or a read
// replica.
func New(st Source, opts ...Option) *Server {
	s := &Server{st: st, mux: http.NewServeMux(), reg: obs.NewRegistry(), results: lru.New[[]byte](defaultResultCacheBytes)}
	for _, opt := range opts {
		opt(s)
	}
	s.reg.Help("snmpfp_http_requests_total", "API requests by endpoint")
	s.reg.Help("snmpfp_http_request_duration_seconds", "API request latency by endpoint")
	s.registerCacheMetrics()
	s.route("GET /v1/ip/{addr}", "ip", &s.reqIP, s.cached(s.handleIP))
	s.route("GET /v1/device/{engineID}", "device", &s.reqDevice, s.cached(s.handleDevice))
	s.route("GET /v1/vendors", "vendors", &s.reqVendors, s.cached(s.handleVendors))
	s.route("GET /v1/reboots/{addr}", "reboots", &s.reqReboots, s.cached(s.handleReboots))
	s.route("GET /v1/fusion", "fusion", &s.reqFusion, s.cached(s.handleFusion))
	s.route("GET /v1/stats", "stats", &s.reqStats, s.handleStats)
	s.route("GET /v1/metrics", "metrics", &s.reqMetrics, s.handleMetrics)
	return s
}

// registerCacheMetrics exposes result-cache effectiveness in the registry.
func (s *Server) registerCacheMetrics() {
	s.reg.Help("snmpfp_serve_result_cache_hits_total", "Result cache hits")
	s.reg.Help("snmpfp_serve_result_cache_misses_total", "Result cache misses")
	s.reg.Help("snmpfp_serve_result_cache_bytes", "Result cache resident bytes")
	s.reg.CounterFunc("snmpfp_serve_result_cache_hits_total", s.results.Hits)
	s.reg.CounterFunc("snmpfp_serve_result_cache_misses_total", s.results.Misses)
	s.reg.GaugeFunc("snmpfp_serve_result_cache_bytes", func() float64 { return float64(s.results.Bytes()) })
}

// resultRecorder tees a handler's response so a 200 body can be cached.
// Error responses pass through uncached.
type resultRecorder struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (rr *resultRecorder) WriteHeader(status int) {
	rr.status = status
	rr.ResponseWriter.WriteHeader(status)
}

func (rr *resultRecorder) Write(p []byte) (int, error) {
	if rr.status == 0 {
		rr.status = http.StatusOK
	}
	if rr.status == http.StatusOK {
		rr.body.Write(p)
	}
	return rr.ResponseWriter.Write(p)
}

// cached takes the request's one snapshot and wraps a view-pure handler
// with the result cache. The key includes that view's generation, so any
// publication that changes visible state invalidates every cached response
// at once — two identical GETs with an ingest between them can never serve
// the same bytes from cache — and the body stored under a generation was
// rendered from it.
func (s *Server) cached(h viewHandler) handlerFunc {
	return func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		v := s.st.Snapshot()
		key := strconv.FormatUint(v.Stats().Version, 16) + "\x00" + r.URL.Path + "\x00" + r.URL.RawQuery
		if body, ok := s.results.Get(key); ok {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			if _, err := w.Write(body); err != nil {
				s.errors.Add(1)
			}
			return
		}
		rr := &resultRecorder{ResponseWriter: w}
		h(v, rr, r)
		if rr.status == http.StatusOK && rr.body.Len() > 0 {
			body := append([]byte(nil), rr.body.Bytes()...)
			s.results.Put(key, body, int64(len(body))+int64(len(key)))
		}
	}
}

// route registers one instrumented endpoint: it counts the request (both
// the legacy per-endpoint atomic and the metrics registry), rejects
// already-cancelled requests, times the handler and records the latency.
func (s *Server) route(pattern, endpoint string, legacy *atomic.Uint64, h handlerFunc) {
	reqs := s.reg.Counter("snmpfp_http_requests_total", obs.L("endpoint", endpoint))
	lat := s.reg.Histogram("snmpfp_http_request_duration_seconds", nil, obs.L("endpoint", endpoint))
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		legacy.Add(1)
		reqs.Inc()
		ctx := r.Context()
		if ctx.Err() != nil {
			s.errors.Add(1)
			writeError(w, http.StatusServiceUnavailable, ErrCodeCanceled, "request context cancelled")
			return
		}
		start := time.Now()
		h(ctx, w, r)
		lat.ObserveDuration(time.Since(start))
	})
}

// Handler returns the API handler.
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP implements http.Handler directly. Requests no route matches get
// the JSON error envelope rather than the mux's plain-text page, while
// preserving the mux's 404-vs-405 decision (a known path hit with the wrong
// method still reports method_not_allowed with its Allow header).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if _, pattern := s.mux.Handler(r); pattern == "" {
		sink := discardWriter{header: make(http.Header)}
		s.mux.ServeHTTP(&sink, r)
		s.errors.Add(1)
		if sink.status == http.StatusMethodNotAllowed {
			if allow := sink.header.Get("Allow"); allow != "" {
				w.Header().Set("Allow", allow)
			}
			writeError(w, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed, "method not allowed")
			return
		}
		writeError(w, http.StatusNotFound, ErrCodeNotFound, "unknown endpoint")
		return
	}
	s.mux.ServeHTTP(w, r)
}

// discardWriter captures the status and headers the mux's built-in
// not-found / method-not-allowed handlers would send, dropping the body.
type discardWriter struct {
	header http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// WireVendorInfo is the vendor inference block attached to identities.
type WireVendorInfo struct {
	Vendor string `json:"vendor"`
	// Source is "oui", "enterprise" or "" (unknown).
	Source string `json:"source,omitempty"`
	Format string `json:"format"`
}

func vendorInfo(engineID []byte) WireVendorInfo {
	fp := core.FingerprintEngineID(engineID)
	return WireVendorInfo{Vendor: fp.VendorLabel(), Source: fp.Source, Format: fp.Format.String()}
}

// WireSample is one stored observation on the wire.
type WireSample struct {
	Campaign     uint64 `json:"campaign"`
	EngineID     string `json:"engine_id"`
	Boots        int64  `json:"boots"`
	EngineTime   int64  `json:"engine_time"`
	ReceivedAt   string `json:"received_at"`
	LastReboot   string `json:"last_reboot"`
	Packets      int    `json:"packets"`
	Inconsistent bool   `json:"inconsistent,omitempty"`
}

func wireSample(sm store.Sample) WireSample {
	return WireSample{
		Campaign:     sm.Campaign,
		EngineID:     hex.EncodeToString(sm.EngineID),
		Boots:        sm.Boots,
		EngineTime:   sm.EngineTime,
		ReceivedAt:   sm.ReceivedAt.UTC().Format(timeLayout),
		LastReboot:   sm.LastReboot().UTC().Format(timeLayout),
		Packets:      sm.Packets,
		Inconsistent: sm.Inconsistent,
	}
}

// WireIP is the /v1/ip response.
type WireIP struct {
	IP      string         `json:"ip"`
	Latest  WireSample     `json:"latest"`
	Vendor  WireVendorInfo `json:"vendor"`
	History []WireSample   `json:"history"`
}

// WireDevice is the /v1/device response.
type WireDevice struct {
	EngineID string         `json:"engine_id"`
	Vendor   WireVendorInfo `json:"vendor"`
	// AliasSets are the validated alias sets of the latest campaign pair
	// carrying this engine ID (one per boots/reboot tuple).
	AliasSets []store.AliasSet `json:"alias_sets"`
	// EverIPs is the all-time per-engine-ID index: every IP that ever
	// reported the engine ID, validated or not.
	EverIPs []netip.Addr `json:"ever_ips"`
}

// WireVendors is the /v1/vendors response. The Vendors slice is
// byte-identical to the batch pipeline's tally on the same campaigns.
type WireVendors struct {
	Campaigns uint64              `json:"campaigns"`
	Sets      int                 `json:"sets"`
	Vendors   []store.VendorCount `json:"vendors"`
}

// WireTimelineSample is one campaign in a reboot timeline.
type WireTimelineSample struct {
	Campaign   uint64 `json:"campaign"`
	Responsive bool   `json:"responsive"`
	At         string `json:"at,omitempty"`
	EngineID   string `json:"engine_id,omitempty"`
	Boots      int64  `json:"boots,omitempty"`
	LastReboot string `json:"last_reboot,omitempty"`
}

// WireReboots is the /v1/reboots response.
type WireReboots struct {
	IP           string               `json:"ip"`
	Campaigns    uint64               `json:"campaigns"`
	Samples      []WireTimelineSample `json:"samples"`
	Events       []string             `json:"events"`
	Reboots      int                  `json:"reboots"`
	Availability float64              `json:"availability"`
}

// WireStats is the /v1/stats response.
type WireStats struct {
	Store store.Stats       `json:"store"`
	Serve map[string]uint64 `json:"serve"`
}

// WireEvidenceSample is one stored protocol-evidence observation — the
// multi-protocol counterpart of WireSample. The key is the probe module's
// device-identity string (readable ASCII), not a hex engine ID.
type WireEvidenceSample struct {
	Campaign     uint64 `json:"campaign"`
	Key          string `json:"key"`
	ReceivedAt   string `json:"received_at"`
	Packets      int    `json:"packets"`
	Inconsistent bool   `json:"inconsistent,omitempty"`
}

// WireProtocolIP is the /v1/ip response when ?protocol= selects a non-SNMP
// probe module's evidence.
type WireProtocolIP struct {
	IP       string               `json:"ip"`
	Protocol string               `json:"protocol"`
	History  []WireEvidenceSample `json:"history"`
}

func (s *Server) handleIP(v *store.View, w http.ResponseWriter, r *http.Request) {
	addr, ok := s.parseAddr(w, r)
	if !ok {
		return
	}
	if proto := r.URL.Query().Get("protocol"); proto != "" && proto != "snmpv3" {
		if _, err := probe.Get(proto); err != nil {
			s.protocolError(w, err)
			return
		}
		h := v.HistoryProtocol(addr, proto)
		if len(h) == 0 {
			s.notFound(w, "ip never observed by "+proto)
			return
		}
		out := WireProtocolIP{
			IP:       addr.String(),
			Protocol: proto,
			History:  make([]WireEvidenceSample, 0, len(h)),
		}
		for _, sm := range h {
			out.History = append(out.History, WireEvidenceSample{
				Campaign:     sm.Campaign,
				Key:          string(sm.EngineID),
				ReceivedAt:   sm.ReceivedAt.UTC().Format(timeLayout),
				Packets:      sm.Packets,
				Inconsistent: sm.Inconsistent,
			})
		}
		s.writeJSON(w, out)
		return
	}
	h := v.History(addr)
	if len(h) == 0 {
		s.notFound(w, "ip never observed")
		return
	}
	latest := h[len(h)-1]
	out := WireIP{
		IP:      addr.String(),
		Latest:  wireSample(latest),
		Vendor:  vendorInfo(latest.EngineID),
		History: make([]WireSample, 0, len(h)),
	}
	for _, sm := range h {
		out.History = append(out.History, wireSample(sm))
	}
	s.writeJSON(w, out)
}

func (s *Server) handleDevice(v *store.View, w http.ResponseWriter, r *http.Request) {
	hexID := r.PathValue("engineID")
	id, err := hex.DecodeString(hexID)
	if err != nil || len(id) == 0 {
		s.badRequest(w, "engine ID must be non-empty hex")
		return
	}
	ever := v.DeviceIPs(id)
	sets := v.SetsForEngine(hexID)
	if len(ever) == 0 && len(sets) == 0 {
		s.notFound(w, "engine ID never observed")
		return
	}
	if sets == nil {
		sets = []store.AliasSet{}
	}
	s.writeJSON(w, WireDevice{
		EngineID:  hexID,
		Vendor:    vendorInfo(id),
		AliasSets: sets,
		EverIPs:   ever,
	})
}

func (s *Server) handleVendors(v *store.View, w http.ResponseWriter, r *http.Request) {
	vendors := v.Vendors()
	if vendors == nil {
		vendors = []store.VendorCount{}
	}
	s.writeJSON(w, WireVendors{
		Campaigns: v.Campaigns(),
		Sets:      len(v.AliasSets()),
		Vendors:   vendors,
	})
}

func (s *Server) handleReboots(v *store.View, w http.ResponseWriter, r *http.Request) {
	addr, ok := s.parseAddr(w, r)
	if !ok {
		return
	}
	tl := v.Timeline(addr)
	if tl == nil {
		s.notFound(w, "ip never observed")
		return
	}
	out := WireReboots{
		IP:           addr.String(),
		Campaigns:    v.Campaigns(),
		Samples:      make([]WireTimelineSample, 0, len(tl.Samples)),
		Reboots:      tl.Reboots(),
		Availability: tl.Availability(),
	}
	for i, sm := range tl.Samples {
		ws := WireTimelineSample{Campaign: uint64(i + 1), Responsive: sm.Responsive}
		if sm.Responsive {
			ws.At = sm.At.UTC().Format(timeLayout)
			ws.EngineID = hex.EncodeToString(sm.EngineID)
			ws.Boots = sm.Boots
			ws.LastReboot = sm.LastReboot.UTC().Format(timeLayout)
		}
		out.Samples = append(out.Samples, ws)
	}
	for _, e := range tl.Transitions() {
		out.Events = append(out.Events, e.String())
	}
	if out.Events == nil {
		out.Events = []string{}
	}
	s.writeJSON(w, out)
}

// WireFusion is the /v1/fusion response: the cross-protocol alias fusion
// report over the latest campaign's evidence.
type WireFusion struct {
	Campaign uint64         `json:"campaign"`
	Report   *fusion.Report `json:"report"`
}

// defaultFusionWeight is the vote weight for protocols found in the store
// but not in the probe-module registry (evidence ingested by an external
// tool, or a module since removed): trusted less than any built-in module.
const defaultFusionWeight = 0.5

func (s *Server) handleFusion(v *store.View, w http.ResponseWriter, r *http.Request) {
	campaign := v.Campaigns()
	if campaign == 0 {
		s.notFound(w, "no campaigns ingested")
		return
	}
	byProto := v.FusionEvidence(campaign)
	if q := r.URL.Query().Get("protocols"); q != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(q, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, err := probe.Get(name); err != nil {
				s.protocolError(w, err)
				return
			}
			want[name] = true
		}
		for name := range byProto {
			if !want[name] {
				delete(byProto, name)
			}
		}
	}
	ev := make([]fusion.ProtocolEvidence, 0, len(byProto))
	for name, groups := range byProto {
		weight := defaultFusionWeight
		if m, err := probe.Get(name); err == nil {
			weight = m.Weight()
		}
		ev = append(ev, fusion.ProtocolEvidence{Protocol: name, Weight: weight, Groups: groups})
	}
	// Fuse sorts the evidence itself, so map iteration order is harmless.
	s.writeJSON(w, WireFusion{Campaign: campaign, Report: fusion.Fuse(ev)})
}

func (s *Server) handleStats(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, WireStats{
		Store: s.st.Snapshot().Stats(),
		Serve: map[string]uint64{
			"ip":      s.reqIP.Load(),
			"device":  s.reqDevice.Load(),
			"vendors": s.reqVendors.Load(),
			"reboots": s.reqReboots.Load(),
			"fusion":  s.reqFusion.Load(),
			"stats":   s.reqStats.Load(),
			"metrics": s.reqMetrics.Load(),
			"errors":  s.errors.Load(),
		},
	})
}

// metricsContentType is the Prometheus text exposition format version the
// registry writes.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

func (s *Server) handleMetrics(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metricsContentType)
	if err := s.reg.WritePrometheus(w); err != nil {
		s.errors.Add(1)
	}
}

func (s *Server) parseAddr(w http.ResponseWriter, r *http.Request) (netip.Addr, bool) {
	addr, err := netip.ParseAddr(r.PathValue("addr"))
	if err != nil {
		s.badRequest(w, "bad address: "+err.Error())
		return netip.Addr{}, false
	}
	return addr, true
}

// jsonBufPool recycles the encode buffers behind writeJSON and writeError,
// so steady-state request handling reuses a few warm buffers instead of
// growing a fresh one per response.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodeJSONPooled marshals v into a pooled buffer and writes it out in one
// Write (with an exact Content-Length). Encoding before touching the
// ResponseWriter also means an encode failure never emits a half-written
// 200 body.
func encodeJSONPooled(w http.ResponseWriter, status int, v any) error {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		jsonBufPool.Put(buf)
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	_, err := w.Write(buf.Bytes())
	jsonBufPool.Put(buf)
	return err
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	if err := encodeJSONPooled(w, http.StatusOK, v); err != nil {
		s.errors.Add(1)
	}
}

// Stable machine-readable error codes carried in the error envelope.
// Clients should switch on the code, not the HTTP status or message text.
const (
	ErrCodeBadRequest       = "bad_request"
	ErrCodeNotFound         = "not_found"
	ErrCodeMethodNotAllowed = "method_not_allowed"
	ErrCodeCanceled         = "canceled"
	// ErrCodeUnknownProtocol reports a ?protocol=/?protocols= name that is
	// not a registered probe module; /v1/ip and /v1/fusion share it.
	ErrCodeUnknownProtocol = "unknown_protocol"
)

// WireError is the versioned error envelope every failing endpoint returns:
// {"error":{"code":"...","message":"..."}}.
type WireError struct {
	Error WireErrorBody `json:"error"`
}

// WireErrorBody is the inner error object.
type WireErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (s *Server) badRequest(w http.ResponseWriter, msg string) {
	s.errors.Add(1)
	writeError(w, http.StatusBadRequest, ErrCodeBadRequest, msg)
}

func (s *Server) notFound(w http.ResponseWriter, msg string) {
	s.errors.Add(1)
	writeError(w, http.StatusNotFound, ErrCodeNotFound, msg)
}

// protocolError maps probe-module lookup failures onto the envelope:
// probe.ErrUnknownProtocol gets its stable code so /v1/ip and /v1/fusion
// report protocol-specific failures consistently; anything else degrades to
// plain bad_request.
func (s *Server) protocolError(w http.ResponseWriter, err error) {
	s.errors.Add(1)
	code := ErrCodeBadRequest
	if errors.Is(err, probe.ErrUnknownProtocol) {
		code = ErrCodeUnknownProtocol
	}
	writeError(w, http.StatusBadRequest, code, err.Error())
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	_ = encodeJSONPooled(w, status, WireError{Error: WireErrorBody{Code: code, Message: msg}})
}
