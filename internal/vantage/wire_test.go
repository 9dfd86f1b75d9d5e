package vantage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"snmpv3fp/internal/netsim"
	"snmpv3fp/internal/scanner"
	"snmpv3fp/internal/wire"
)

func roundTrip(t *testing.T, typ byte, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, typ, body); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	gotTyp, gotBody, err := wire.ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if gotTyp != typ {
		t.Fatalf("frame type %d round-tripped as %d", typ, gotTyp)
	}
	return gotBody
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{Name: "vantage-03", Version: protocolVersion}
	got, err := ParseHello(roundTrip(t, frameHello, AppendHello(nil, h)))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("got %+v want %+v", got, h)
	}
}

func TestCampaignSpecRoundTrip(t *testing.T) {
	specs := []CampaignSpec{
		{
			CampaignSeed: 42, SimSeed: -7, ScanDay: 15, ScanEpochs: 2,
			Rate: 5000, Batch: 64, Workers: 4, Retries: 2,
			Timeout: 8 * time.Second, TotalShards: 8,
			Faults: netsim.FullHostileProfile(),
		},
		{CampaignSeed: -1, SimSeed: 3, TotalShards: 1}, // clean path, nil faults
	}
	for _, spec := range specs {
		got, err := ParseCampaignSpec(roundTrip(t, frameCampaign, AppendCampaignSpec(nil, spec)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, spec) {
			t.Fatalf("got %+v want %+v", got, spec)
		}
	}
}

func TestLeaseHeartbeatRoundTrip(t *testing.T) {
	l := Lease{Epoch: 1 << 40, Shard: 3, Viewpoint: 2}
	gotL, err := ParseLease(roundTrip(t, frameLease, AppendLease(nil, l)))
	if err != nil {
		t.Fatal(err)
	}
	if gotL != l {
		t.Fatalf("got %+v want %+v", gotL, l)
	}
	h := Heartbeat{Epoch: 99}
	gotH, err := ParseHeartbeat(roundTrip(t, frameHeartbeat, AppendHeartbeat(nil, h)))
	if err != nil {
		t.Fatal(err)
	}
	if gotH != h {
		t.Fatalf("got %+v want %+v", gotH, h)
	}
}

func TestPartialRoundTrip(t *testing.T) {
	at := time.Date(2021, 4, 16, 3, 2, 1, 500, time.UTC)
	p := Partial{
		Epoch: 7, Shard: 1, Viewpoint: 0,
		Responses: []scanner.Response{
			{Src: netip.MustParseAddr("192.0.2.9"), Payload: []byte{0x30, 0x82, 0x01}, At: at},
			{Src: netip.MustParseAddr("2001:db8::5"), Payload: nil, At: at.Add(time.Millisecond)},
			{Src: netip.MustParseAddr("198.51.100.1"), Payload: []byte{}, At: at.Add(time.Second)},
		},
	}
	got, err := ParsePartial(roundTrip(t, framePartial, AppendPartial(nil, p)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != p.Epoch || got.Shard != p.Shard || got.Viewpoint != p.Viewpoint {
		t.Fatalf("header got %+v want %+v", got, p)
	}
	if len(got.Responses) != len(p.Responses) {
		t.Fatalf("got %d responses, want %d", len(got.Responses), len(p.Responses))
	}
	for i := range p.Responses {
		want, have := p.Responses[i], got.Responses[i]
		if have.Src != want.Src || !have.At.Equal(want.At) || !bytes.Equal(have.Payload, want.Payload) {
			t.Errorf("response %d: got %+v want %+v", i, have, want)
		}
	}
	// An empty partial must round-trip too (a shard can capture nothing).
	empty, err := ParsePartial(roundTrip(t, framePartial, AppendPartial(nil, Partial{Epoch: 1})))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Responses) != 0 {
		t.Fatalf("empty partial decoded %d responses", len(empty.Responses))
	}
}

func TestShardDoneRoundTrip(t *testing.T) {
	d := ShardDone{
		Epoch: 12, Shard: 5, Viewpoint: 1,
		Sent: 1000, Retried: 30, OffPath: 4, ProbeMsgID: 42,
		Started:  time.Date(2021, 4, 16, 0, 0, 0, 0, time.UTC),
		Finished: time.Date(2021, 4, 16, 0, 5, 0, 0, time.UTC),
	}
	got, err := ParseShardDone(roundTrip(t, frameShardDone, AppendShardDone(nil, d)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("got %+v want %+v", got, d)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, frameHello})
	if _, _, err := wire.ReadFrame(&buf); err != wire.ErrFrameTooLarge {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncatedStream(t *testing.T) {
	// A frame header promising more bytes than the stream delivers must
	// surface as unexpected EOF, not a clean end of stream.
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, framePartial, AppendPartial(nil, Partial{Epoch: 3})); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		_, _, err := wire.ReadFrame(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d bytes decoded successfully", cut)
		}
		if cut >= 4 && err != io.ErrUnexpectedEOF {
			t.Fatalf("truncation at %d: got %v, want ErrUnexpectedEOF", cut, err)
		}
	}
	// Zero-length prefix (no type byte) is also invalid.
	if _, _, err := wire.ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err != wire.ErrTruncated {
		t.Fatalf("zero-length frame: got %v, want wire.ErrTruncated", err)
	}
}

func TestParseRejectsTrailingBytes(t *testing.T) {
	body := AppendLease(nil, Lease{Epoch: 1, Shard: 0, Viewpoint: 0})
	if _, err := ParseLease(append(body, 0xAB)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestWireGolden pins the protocol bytes: one populated instance of every
// message type, each inside a full frame, hashed. The digest was taken
// before framing moved into internal/wire; a change to it is a protocol
// change and needs a protocolVersion bump.
func TestWireGolden(t *testing.T) {
	at := time.Date(2021, 4, 16, 3, 2, 1, 500, time.UTC)
	frames := []struct {
		typ  byte
		body []byte
	}{
		{frameHello, AppendHello(nil, Hello{Name: "vantage-03", Version: protocolVersion})},
		{frameCampaign, AppendCampaignSpec(nil, CampaignSpec{
			CampaignSeed: 42, SimSeed: -7, SimFull: true, ScanDay: 15, ScanEpochs: 2,
			Rate: 5000, Batch: 64, Workers: 4, Retries: 2, Timeout: 8 * time.Second, TotalShards: 8,
			Faults: &netsim.FaultProfile{Loss: 0.1, RateLimit: 0.05, Mismatch: 0.02, Duplicate: 0.03,
				DupCopies: 2, Truncate: 0.01, Corrupt: 0.015, OffPath: 0.2, Jitter: 30 * time.Millisecond, SendErr: 0.05},
		})},
		{frameLease, AppendLease(nil, Lease{Epoch: 1 << 40, Shard: 3, Viewpoint: 2})},
		{frameHeartbeat, AppendHeartbeat(nil, Heartbeat{Epoch: 99})},
		{framePartial, AppendPartial(nil, Partial{Epoch: 7, Shard: 1, Responses: []scanner.Response{
			{Src: netip.MustParseAddr("192.0.2.9"), Payload: []byte{0x30, 0x82, 0x01}, At: at},
			{Src: netip.MustParseAddr("2001:db8::5"), At: at.Add(time.Millisecond)},
		}})},
		{frameShardDone, AppendShardDone(nil, ShardDone{Epoch: 12, Shard: 5, Viewpoint: 1,
			Sent: 1000, Retried: 30, OffPath: 4, ProbeMsgID: 42, Started: at, Finished: at.Add(5 * time.Minute)})},
		{frameCampaignDone, nil},
	}
	h := sha256.New()
	for _, f := range frames {
		if err := wire.WriteFrame(h, f.typ, f.body); err != nil {
			t.Fatal(err)
		}
	}
	const want = "3f8e926a9459104e91d7ce66c591809873bee6361bffb558f2d658f8d335b839"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("wire bytes changed: digest %s, want %s", got, want)
	}
}

func TestParsePartialBogusCount(t *testing.T) {
	// A count field larger than the body could possibly hold must be
	// rejected before any allocation proportional to it.
	body := wire.AppendU64(nil, 1)
	body = wire.AppendU32(body, 0)
	body = wire.AppendU32(body, 0)
	body = wire.AppendU32(body, 0xFFFFFFF0)
	if _, err := ParsePartial(body); err == nil {
		t.Fatal("bogus response count accepted")
	}
}
