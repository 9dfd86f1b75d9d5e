package scanner

import (
	"context"
	"io"
	"net/netip"
	"testing"
	"time"

	"snmpv3fp/internal/snmp"
	"snmpv3fp/internal/vclock"
)

// echoTransport answers selected targets with a canned report.
type echoTransport struct {
	responders map[netip.Addr][]byte
	ch         chan Response
	clock      vclock.Clock
	sent       int
}

func newEchoTransport(clock vclock.Clock) *echoTransport {
	return &echoTransport{
		responders: map[netip.Addr][]byte{},
		ch:         make(chan Response, 1024),
		clock:      clock,
	}
}

func (e *echoTransport) Send(dst netip.Addr, payload []byte) error {
	e.sent++
	if resp, ok := e.responders[dst]; ok {
		e.ch <- Response{Src: dst, Payload: resp, At: e.clock.Now()}
	}
	return nil
}

func (e *echoTransport) Recv() (netip.Addr, []byte, time.Time, error) {
	r, ok := <-e.ch
	if !ok {
		return netip.Addr{}, nil, time.Time{}, io.EOF
	}
	return r.Src, r.Payload, r.At, nil
}

func (e *echoTransport) Close() error {
	close(e.ch)
	return nil
}

func TestScanCollectsResponses(t *testing.T) {
	clock := vclock.NewVirtual(time.Date(2021, 4, 16, 0, 0, 0, 0, time.UTC))
	tr := newEchoTransport(clock)
	report, _ := snmp.NewDiscoveryReport(snmp.NewDiscoveryRequest(1, 1),
		[]byte{0x80, 0, 0, 9, 3, 1, 2, 3, 4, 5, 6}, 2, 100, 1).Encode()
	tr.responders[netip.MustParseAddr("192.0.2.7")] = report
	tr.responders[netip.MustParseAddr("192.0.2.200")] = report

	targets, err := NewPrefixSpace([]netip.Prefix{netip.MustParsePrefix("192.0.2.0/24")}, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ScanContext(context.Background(), tr, targets, Config{Rate: 100000, Clock: clock, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 256 {
		t.Errorf("sent = %d", res.Sent)
	}
	if len(res.Responses) != 2 {
		t.Fatalf("responses = %d", len(res.Responses))
	}
	// Virtual time must have advanced by send pacing plus the timeout.
	elapsed := res.Finished.Sub(res.Started)
	wantMin := 256*time.Second/100000 + 8*time.Second
	if elapsed < wantMin {
		t.Errorf("virtual elapsed %v < %v", elapsed, wantMin)
	}
}

func TestScanPacing(t *testing.T) {
	clock := vclock.NewVirtual(time.Unix(0, 0))
	tr := newEchoTransport(clock)
	targets, _ := NewPrefixSpace([]netip.Prefix{netip.MustParsePrefix("10.0.0.0/22")}, 1)
	res, err := ScanContext(context.Background(), tr, targets, Config{Rate: 1000, Batch: 64, Timeout: time.Second, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	// 1024 targets at 1 kpps ≈ 1.024 s of sending + 1 s drain.
	elapsed := res.Finished.Sub(res.Started)
	if elapsed < 2*time.Second || elapsed > 3*time.Second {
		t.Errorf("virtual elapsed = %v, want ~2s", elapsed)
	}
}

func TestScanProbesAreValidSNMPv3(t *testing.T) {
	clock := vclock.NewVirtual(time.Unix(0, 0))
	var captured []byte
	tr := &captureTransport{clock: clock, onSend: func(p []byte) { captured = p }, closed: make(chan struct{})}
	targets, _ := NewListSpace([]netip.Addr{netip.MustParseAddr("192.0.2.1")}, 1)
	if _, err := ScanContext(context.Background(), tr, targets, Config{Rate: 1000, Clock: clock}); err != nil {
		t.Fatal(err)
	}
	msg, err := snmp.DecodeV3(captured)
	if err != nil {
		t.Fatalf("probe is not valid SNMPv3: %v", err)
	}
	if len(msg.USM.AuthoritativeEngineID) != 0 || !msg.Reportable() {
		t.Error("probe is not a discovery request")
	}
}

type captureTransport struct {
	clock  vclock.Clock
	onSend func([]byte)
	closed chan struct{}
}

func (c *captureTransport) Send(dst netip.Addr, payload []byte) error {
	c.onSend(payload)
	return nil
}

func (c *captureTransport) Recv() (netip.Addr, []byte, time.Time, error) {
	<-c.closed
	return netip.Addr{}, nil, time.Time{}, io.EOF
}

func (c *captureTransport) Close() error {
	close(c.closed)
	return nil
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fill()
	if c.Rate != 5000 || c.Batch != 64 || c.Timeout != 8*time.Second || c.Clock == nil {
		t.Errorf("defaults = %+v", c)
	}
}
