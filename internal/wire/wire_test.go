package wire

import (
	"bytes"
	"io"
	"net/netip"
	"testing"
	"time"
)

// FuzzFrame holds the codec to its contract on arbitrary bytes: ReadFrame
// never panics and fails only with the framing error classes, an accepted
// frame re-encodes to exactly the bytes it was read from, and a Reader run
// over every field kind either rejects the input with a Reader error or
// re-encodes it byte for byte through the matching Append helpers.
func FuzzFrame(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 7})
	f.Add([]byte{0, 0, 0, 3, 1, 0xAB, 0xCD})
	f.Add([]byte{0, 0, 0, 9, 2, 1})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{})
	fields := AppendF64(AppendU64(AppendU32(AppendU16(nil, 7), 8), 9), 1.5)
	fields = AppendBytes32(AppendStr16(AppendBool(fields, true), "x"), []byte{1, 2})
	f.Add(AppendTime(AppendAddr(fields, netip.MustParseAddr("2001:db8::5")), time.Unix(0, 123)))
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, body, err := ReadFrame(bytes.NewReader(data))
		switch err {
		case nil:
			var buf bytes.Buffer
			if err := WriteFrame(&buf, typ, body); err != nil {
				t.Fatalf("re-encoding an accepted frame: %v", err)
			}
			if !bytes.HasPrefix(data, buf.Bytes()) {
				t.Fatal("frame decode/encode not identity")
			}
		case io.EOF, io.ErrUnexpectedEOF, ErrFrameTooLarge, ErrTruncated:
		default:
			t.Fatalf("ReadFrame: unexpected error class %v", err)
		}

		r := NewReader(data)
		u16, u32, u64, f64 := r.U16(), r.U32(), r.U64(), r.F64()
		b, s, p, a, tm := r.Bool(), r.Str16(), r.Bytes32(), r.Addr(), r.Time()
		switch err := r.Done(); err {
		case nil:
			again := AppendU16(nil, u16)
			again = AppendU32(again, u32)
			again = AppendU64(again, u64)
			again = AppendF64(again, f64)
			again = AppendBool(again, b)
			again = AppendStr16(again, s)
			again = AppendBytes32(again, p)
			again = AppendAddr(again, a)
			again = AppendTime(again, tm)
			if !bytes.Equal(again, data) {
				t.Fatalf("field decode/encode not identity:\n got %x\nwant %x", again, data)
			}
		case ErrTruncated, ErrTrailing:
		default:
			t.Fatalf("Reader: unexpected error class %v", err)
		}
	})
}
