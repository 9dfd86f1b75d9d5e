// Package wire is the frame codec both TCP planes share: the distributed
// scan protocol (internal/vantage) and segment-shipping replication
// (internal/store). Each plane keeps only its message types and their
// Append/Parse pairs; framing, field encodings and the body cursor live here.
//
// A frame is a 4-byte big-endian length covering everything after itself, a
// 1-byte frame type and a type-specific body, so a stream self-delimits over
// TCP. Inside bodies integers are big-endian; times travel as Unix
// nanoseconds and decode in UTC, which round-trips the virtual campaign clock
// exactly; addresses travel as a 1-byte length (4 or 16) plus raw bytes;
// strings carry a u16 length and byte strings a u32 length.
package wire

import (
	"errors"
	"io"
	"math"
	"net/netip"
	"time"

	"snmpv3fp/internal/bufpool"
)

// MaxFrame bounds a frame (type byte plus body) so a corrupt or hostile
// length prefix cannot make ReadFrame allocate unboundedly. Both planes chunk
// their bulk payloads far below it.
const MaxFrame = 8 << 20

var (
	// ErrFrameTooLarge reports a frame, written or read, beyond MaxFrame.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrTruncated reports a frame or body shorter than its fields claim,
	// or a field value its parser rejects.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrTrailing reports bytes left after a body's last field: a frame
	// that says more than its type allows is as corrupt as one saying less.
	ErrTrailing = errors.New("wire: trailing bytes in frame body")
)

// framePool recycles frame assembly buffers across both planes' send loops.
// Frames that outgrow a pooled buffer reallocate via append; Put recovers
// the grown buffer for reuse either way.
var framePool = bufpool.New(64, 64<<10)

// WriteFrame writes one frame with a single Write call. The body is not
// retained.
func WriteFrame(w io.Writer, typ byte, body []byte) error {
	if len(body)+1 > MaxFrame {
		return ErrFrameTooLarge
	}
	buf := framePool.Get()[:0]
	buf = AppendU32(buf, uint32(len(body)+1))
	buf = append(buf, typ)
	buf = append(buf, body...)
	_, err := w.Write(buf)
	framePool.Put(buf)
	return err
}

// ReadFrame reads one frame, returning its type and a freshly allocated
// body. A stream that ends between frames reports io.EOF; one that dies
// inside a frame is corrupt, not done, and reports io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, nil, err
	}
	n := uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3])
	if n < 1 {
		return 0, nil, ErrTruncated
	}
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	var body []byte
	_, err := io.ReadFull(r, hdr[4:5])
	if err == nil {
		body = make([]byte, n-1)
		_, err = io.ReadFull(r, body)
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return 0, nil, err
	}
	return hdr[4], body, nil
}

// Body encoders: each appends one field to b.

func AppendU16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }

func AppendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func AppendU64(b []byte, v uint64) []byte { return AppendU32(AppendU32(b, uint32(v>>32)), uint32(v)) }

func AppendI64(b []byte, v int64) []byte { return AppendU64(b, uint64(v)) }

func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

func AppendTime(b []byte, t time.Time) []byte { return AppendI64(b, t.UnixNano()) }

func AppendBytes32(b, p []byte) []byte { return append(AppendU32(b, uint32(len(p))), p...) }

// AppendBool encodes v as one byte, 1 or 0.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendStr16 truncates s to the 64 KiB its u16 length can describe.
func AppendStr16(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	return append(AppendU16(b, uint16(len(s))), s...)
}

func AppendAddr(b []byte, a netip.Addr) []byte {
	if a.Is4() {
		v := a.As4()
		return append(append(b, 4), v[:]...)
	}
	v := a.As16()
	return append(append(b, 16), v[:]...)
}

// Reader cursors over a frame body, latching the first underflow or
// rejected field so a parser can chain reads and check the error once, in
// Done. Every read after the latch returns the zero value.
type Reader struct {
	b   []byte
	bad bool
}

func NewReader(body []byte) *Reader { return &Reader{b: body} }

func (r *Reader) take(n int) []byte {
	if r.bad || n < 0 || len(r.b) < n {
		r.bad = true
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *Reader) u8() byte {
	if v := r.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (r *Reader) U16() uint16 {
	if v := r.take(2); v != nil {
		return uint16(v[0])<<8 | uint16(v[1])
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if v := r.take(4); v != nil {
		return uint32(v[0])<<24 | uint32(v[1])<<16 | uint32(v[2])<<8 | uint32(v[3])
	}
	return 0
}

func (r *Reader) U64() uint64 {
	hi := r.U32()
	return uint64(hi)<<32 | uint64(r.U32())
}

func (r *Reader) I64() int64 { return int64(r.U64()) }

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

func (r *Reader) Str16() string { return string(r.take(int(r.U16()))) }

// Bool latches the reader on any byte other than 0 or 1.
func (r *Reader) Bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	}
	r.bad = true
	return false
}

// Count reads a u32 element count, latching the reader (and returning 0)
// when the rest of the body cannot hold that many elements of at least
// minSize bytes each, so a parser never allocates for a count the body
// cannot back.
func (r *Reader) Count(minSize int) int {
	n := int(r.U32())
	if r.bad || n > len(r.b)/minSize {
		r.bad = true
		return 0
	}
	return n
}

// Time decodes in UTC; the zero Time once the reader has failed.
func (r *Reader) Time() time.Time {
	if n := r.I64(); !r.bad {
		return time.Unix(0, n).UTC()
	}
	return time.Time{}
}

// Bytes32 copies its bytes out of the body; an empty string decodes as nil.
func (r *Reader) Bytes32() []byte {
	if v := r.take(int(r.U32())); len(v) > 0 {
		return append([]byte(nil), v...)
	}
	return nil
}

// Addr latches the reader on any length byte other than 4 or 16.
func (r *Reader) Addr() netip.Addr {
	switch r.u8() {
	case 4:
		if v := r.take(4); v != nil {
			return netip.AddrFrom4([4]byte(v))
		}
	case 16:
		if v := r.take(16); v != nil {
			return netip.AddrFrom16([16]byte(v))
		}
	default:
		r.bad = true
	}
	return netip.Addr{}
}

// Done reports whether the body parsed cleanly and completely: ErrTruncated
// after any failed read, ErrTrailing when bytes remain.
func (r *Reader) Done() error {
	if r.bad {
		return ErrTruncated
	}
	if len(r.b) != 0 {
		return ErrTrailing
	}
	return nil
}
