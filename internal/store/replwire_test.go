package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"snmpv3fp/internal/wire"
)

// TestReplWireGolden pins the replication protocol bytes: one populated
// instance of every message type, each inside a full frame, hashed. The
// digest was taken before framing moved into internal/wire; a change to it
// is a protocol change and needs a replProtoVersion bump.
func TestReplWireGolden(t *testing.T) {
	frames := []struct {
		typ  byte
		body []byte
	}{
		{replFrameHello, appendReplHello(nil, replHello{Version: replProtoVersion, AppliedSeq: 1<<40 + 7,
			Held: []string{"000001.seg", "000042.seg"}})},
		{replFrameSeg, appendReplSeg(nil, replSeg{Name: "000043.seg", Size: 123456, CRC: 0xDEADBEEF})},
		{replFrameChunk, []byte("segment bytes \x00\x01\xff")},
		{replFrameSegDone, nil},
		{replFrameCommit, appendReplCommit(nil, replCommit{Manifest: []byte("{\"seq\":9}\n"),
			Stats: []byte(`{"campaigns":3}`)})},
		{replFrameAck, appendReplAck(nil, 9)},
	}
	h := sha256.New()
	for _, f := range frames {
		if err := wire.WriteFrame(h, f.typ, f.body); err != nil {
			t.Fatal(err)
		}
	}
	const want = "a659b70e57fd16eaef4c58efb55dacaa14866ff5270b7bf3cd475eeac686b997"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("replication wire bytes changed: digest %s, want %s", got, want)
	}
}

// FuzzReplFrame holds the replication codec to the vantage codec's bar: on
// any bytes the frame reader and every body parser return only wire error
// classes and never panic, and decode∘encode is the identity on accepted
// Hello, Seg, Commit and Ack bodies.
func FuzzReplFrame(f *testing.F) {
	for _, body := range [][]byte{
		appendReplHello(nil, replHello{Version: replProtoVersion, AppliedSeq: 3, Held: []string{"000001.seg"}}),
		appendReplSeg(nil, replSeg{Name: "000002.seg", Size: 10, CRC: 7}),
		appendReplCommit(nil, replCommit{Manifest: []byte("m"), Stats: []byte("{}")}),
		appendReplAck(nil, 4),
		{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF},
		{},
	} {
		for typ := replFrameHello; typ <= replFrameAck; typ++ {
			var buf bytes.Buffer
			if wire.WriteFrame(&buf, typ, body) == nil {
				f.Add(buf.Bytes())
			}
		}
		f.Add(body)
	}
	wireClass := func(t *testing.T, what string, err error) {
		for _, want := range []error{io.EOF, io.ErrUnexpectedEOF, wire.ErrFrameTooLarge, wire.ErrTruncated, wire.ErrTrailing} {
			if err == want {
				return
			}
		}
		t.Fatalf("%s: unexpected error class %v", what, err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, body, err := wire.ReadFrame(bytes.NewReader(data))
		if err != nil {
			wireClass(t, "ReadFrame", err)
			// The parsers must hold up on any bytes, framed or not.
			if len(data) == 0 {
				return
			}
			typ, body = data[0]%(replFrameAck+1), data[1:]
		}
		var again []byte
		switch typ {
		case replFrameHello:
			h, err := parseReplHello(body)
			if err != nil {
				wireClass(t, "hello", err)
				return
			}
			again = appendReplHello(nil, h)
		case replFrameSeg:
			s, err := parseReplSeg(body)
			if err != nil {
				wireClass(t, "seg", err)
				return
			}
			again = appendReplSeg(nil, s)
		case replFrameCommit:
			c, err := parseReplCommit(body)
			if err != nil {
				wireClass(t, "commit", err)
				return
			}
			again = appendReplCommit(nil, c)
		case replFrameAck:
			seq, err := parseReplAck(body)
			if err != nil {
				wireClass(t, "ack", err)
				return
			}
			again = appendReplAck(nil, seq)
		default:
			return
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("frame %d: decode/encode not identity", typ)
		}
	})
}

// fakePrimary plays a primary that reads the replica's Hello, sends frames
// in order and hangs up. It returns the replica's end of the connection;
// the goroutine exits once the replica closes it.
func fakePrimary(frames ...[]byte) net.Conn {
	primary, replica := net.Pipe()
	go func() {
		defer primary.Close()
		if _, _, err := wire.ReadFrame(primary); err != nil {
			return
		}
		for _, f := range frames {
			if _, err := primary.Write(f); err != nil {
				return
			}
		}
	}()
	return replica
}

func frameBytes(typ byte, body []byte) []byte {
	var buf bytes.Buffer
	_ = wire.WriteFrame(&buf, typ, body)
	return buf.Bytes()
}

// TestReplicaRejectsUnsafeSegmentNames: the replication plane is
// unauthenticated, so a peer naming a shipped segment "../escape.seg" or
// "MANIFEST" must fail the sync with ErrBadSegmentName, and nothing may
// land in or beside the replica directory.
func TestReplicaRejectsUnsafeSegmentNames(t *testing.T) {
	for _, name := range []string{"../escape.seg", "MANIFEST", "1.seg", "000001.seg/x"} {
		root := t.TempDir()
		dir := filepath.Join(root, "replica")
		r, err := OpenReplica(ReplicaOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		data := []byte("not a segment")
		err = r.Sync(context.Background(), fakePrimary(
			frameBytes(replFrameSeg, appendReplSeg(nil, replSeg{
				Name: name, Size: uint64(len(data)), CRC: crc32.Checksum(data, castagnoli)})),
			frameBytes(replFrameChunk, data),
			frameBytes(replFrameSegDone, nil)))
		r.Close()
		if !errors.Is(err, ErrBadSegmentName) {
			t.Errorf("%q: Sync = %v, want ErrBadSegmentName", name, err)
		}
		for _, d := range []string{root, dir} {
			entries, err := os.ReadDir(d)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.Name() != "replica" {
					t.Errorf("%q: shipped file %s landed in %s", name, e.Name(), d)
				}
			}
		}
	}
}

// TestReplicaSegmentSizeBoundsAllocation: a Seg frame announcing 4 GiB and
// then a hang-up must not make the replica reserve the announced size
// before any byte of it arrives.
func TestReplicaSegmentSizeBoundsAllocation(t *testing.T) {
	r, err := OpenReplica(ReplicaOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	conn := fakePrimary(frameBytes(replFrameSeg, appendReplSeg(nil, replSeg{Name: "000001.seg", Size: 4 << 30})))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = r.Sync(context.Background(), conn)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("sync over a stream that hung up mid-segment reported success")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
		t.Fatalf("a 4 GiB announcement allocated %d MiB before any chunk arrived", grew>>20)
	}
}
