package vantage

import (
	"bytes"
	"io"
	"net/netip"
	"testing"
	"time"

	"snmpv3fp/internal/scanner"
	"snmpv3fp/internal/wire"
)

// FuzzWireFrame hammers the frame reader and every body parser with
// arbitrary bytes: no input may panic, over-allocate, or decode into a
// message that does not re-encode to the same bytes (parsers are strict, so
// decode∘encode must be the identity on accepted bodies).
func FuzzWireFrame(f *testing.F) {
	seed := [][]byte{
		AppendHello(nil, Hello{Name: "v0", Version: protocolVersion}),
		AppendCampaignSpec(nil, CampaignSpec{CampaignSeed: 42, SimSeed: 7, Rate: 5000, TotalShards: 4}),
		AppendLease(nil, Lease{Epoch: 3, Shard: 1, Viewpoint: 2}),
		AppendHeartbeat(nil, Heartbeat{Epoch: 9}),
		AppendPartial(nil, Partial{Epoch: 1, Shard: 0, Responses: []scanner.Response{
			{Src: netip.MustParseAddr("192.0.2.1"), Payload: []byte{0x30, 0x03}, At: time.Unix(0, 123).UTC()},
		}}),
		AppendShardDone(nil, ShardDone{Epoch: 2, Shard: 3, Sent: 10,
			Started: time.Unix(5, 0).UTC(), Finished: time.Unix(6, 0).UTC()}),
		{0, 0, 0, 2, frameLease, 0xFF},
		{0xFF, 0xFF, 0xFF, 0xFF, 0, 0},
		{},
	}
	for _, s := range seed {
		for typ := byte(0); typ <= frameCampaignDone+1; typ++ {
			var buf bytes.Buffer
			if wire.WriteFrame(&buf, typ, s) == nil {
				f.Add(buf.Bytes())
			}
		}
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, body, err := wire.ReadFrame(bytes.NewReader(data))
		if err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF &&
				err != wire.ErrFrameTooLarge && err != wire.ErrTruncated {
				t.Fatalf("ReadFrame: unexpected error class %v", err)
			}
			// Still exercise the parsers on the raw input: a coordinator
			// never sees a body without a valid frame, but the parsers
			// must hold up on any bytes regardless.
			body = data
			typ = 0
			if len(data) > 0 {
				typ = data[0] % (frameCampaignDone + 2)
				body = data[1:]
			}
		}
		switch typ {
		case frameHello:
			if h, err := ParseHello(body); err == nil {
				if !bytes.Equal(AppendHello(nil, h), body) {
					t.Fatal("Hello decode/encode not identity")
				}
			}
		case frameCampaign:
			if spec, err := ParseCampaignSpec(body); err == nil {
				if !bytes.Equal(AppendCampaignSpec(nil, spec), body) {
					t.Fatal("CampaignSpec decode/encode not identity")
				}
			}
		case frameLease:
			if l, err := ParseLease(body); err == nil {
				if !bytes.Equal(AppendLease(nil, l), body) {
					t.Fatal("Lease decode/encode not identity")
				}
			}
		case frameHeartbeat:
			if h, err := ParseHeartbeat(body); err == nil {
				if !bytes.Equal(AppendHeartbeat(nil, h), body) {
					t.Fatal("Heartbeat decode/encode not identity")
				}
			}
		case framePartial:
			if p, err := ParsePartial(body); err == nil {
				if !bytes.Equal(AppendPartial(nil, p), body) {
					t.Fatal("Partial decode/encode not identity")
				}
			}
		case frameShardDone:
			if d, err := ParseShardDone(body); err == nil {
				if !bytes.Equal(AppendShardDone(nil, d), body) {
					t.Fatal("ShardDone decode/encode not identity")
				}
			}
		}
	})
}
