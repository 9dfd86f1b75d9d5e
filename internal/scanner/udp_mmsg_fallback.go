//go:build !linux || !(amd64 || arm64)

package scanner

import "net/netip"

// Portable fallbacks for platforms without the raw sendmmsg/recvmmsg path:
// the batch API stays available everywhere, it just degrades to per-datagram
// calls, so callers never need their own build-tagged dispatch.

func (t *UDPTransport) sendBatch(dsts []netip.Addr, payload []byte) (int, error) {
	return sendEach(len(dsts), func(i int) error { return t.Send(dsts[i], payload) })
}

func (t *UDPTransport) recvBatch(into []Datagram) (int, error) { return recvOne(t, into) }
