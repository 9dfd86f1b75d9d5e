package scanner

import (
	"errors"
	"net/netip"
	"syscall"
	"time"
)

// This file defines the batch transport API: optional interfaces a Transport
// can implement to move whole batches of datagrams per operation. At line
// rate the per-datagram cost of the scalar API is dominated by fixed
// per-call overhead — one syscall (or one channel hop and admission lock in
// the simulator) per probe — so the engine drains targets in Config.Batch
// sized runs and hands each run to the transport in one call. See
// DESIGN.md §13.
//
// The engine drives only this API. A transport lacking some of it is
// adapted once, at the engine's edge (batchOf), by forwarding what it does
// implement and emulating the rest over the scalar calls. Batching is purely
// an execution strategy: a campaign over a batch-capable transport produces
// a Result byte-identical to the same campaign through the adapter, at every
// batch size and worker count.

// Datagram is one received datagram in a batch receive. It carries the same
// fields Recv returns; the payload ownership contract is unchanged (release
// through PayloadReleaser when the transport recycles receive buffers).
type Datagram struct {
	Src     netip.Addr
	Payload []byte
	At      time.Time
}

// BatchSender is a Transport that can transmit one payload to many
// destinations in a single operation (sendmmsg on Linux sockets, vectorized
// delivery in netsim). SendBatch returns the number of leading destinations
// actually sent; n < len(dsts) implies err != nil, and the caller resumes
// from dsts[n:] after handling the error. A campaign probe is stateless and
// identical for every target, which is what makes the one-payload
// many-destinations shape sufficient.
type BatchSender interface {
	Transport
	// SendBatch transmits payload to every address in dsts, in order.
	SendBatch(dsts []netip.Addr, payload []byte) (n int, err error)
}

// TimedBatchSender is the batched form of TimedTransport: one payload to
// many destinations, each at its own caller-chosen logical instant. The
// engine's logical (virtual-time) mode uses it to flush a whole
// permutation-slot run per call while keeping every probe's timestamp a
// pure function of the seed.
type TimedBatchSender interface {
	Transport
	// SendBatchAt transmits payload to dsts[i] at logical time ats[i].
	// len(ats) must equal len(dsts). Like SendBatch, it returns how many
	// leading destinations were sent.
	SendBatchAt(dsts []netip.Addr, payload []byte, ats []time.Time) (n int, err error)
}

// BatchReceiver is a Transport that can deliver many queued datagrams per
// call into a caller-owned ring of Datagram slots. RecvBatch blocks until at
// least one datagram is available (or the transport is closed), fills up to
// len(into) slots, and returns how many it filled; n == 0 implies err !=
// nil, with io.EOF reporting an orderly drain after Close. Payloads follow
// the same ownership contract as Recv: when the transport implements
// PayloadReleaser, each payload must be released exactly once after use.
type BatchReceiver interface {
	Transport
	// RecvBatch fills into with the next available datagrams.
	RecvBatch(into []Datagram) (n int, err error)
}

// batchTransport is the one send/receive surface the engine drives.
type batchTransport interface {
	BatchSender
	TimedBatchSender
	BatchReceiver
}

// batchOf returns tr as a batchTransport: tr itself when it implements the
// whole batch API, otherwise a scalarBatch holding whichever parts it does.
func batchOf(tr Transport) batchTransport {
	if bt, ok := tr.(batchTransport); ok {
		return bt
	}
	s := &scalarBatch{Transport: tr}
	s.send, _ = tr.(BatchSender)
	s.sendAt, _ = tr.(TimedBatchSender)
	s.recv, _ = tr.(BatchReceiver)
	s.timed, _ = tr.(TimedTransport)
	return s
}

// scalarBatch adapts a Transport to batchTransport. Each batch call goes to
// the transport's own batch method when it has one; otherwise a send loops
// the scalar call per destination and a receive delivers one datagram.
type scalarBatch struct {
	Transport
	send   BatchSender
	sendAt TimedBatchSender
	recv   BatchReceiver
	timed  TimedTransport
}

func (s *scalarBatch) SendBatch(dsts []netip.Addr, payload []byte) (int, error) {
	if s.send != nil {
		return s.send.SendBatch(dsts, payload)
	}
	return sendEach(len(dsts), func(i int) error { return s.Send(dsts[i], payload) })
}

// SendBatchAt is only called in logical mode, which the engine selects only
// for a TimedTransport, so timed is set whenever sendAt is not.
func (s *scalarBatch) SendBatchAt(dsts []netip.Addr, payload []byte, ats []time.Time) (int, error) {
	if s.sendAt != nil {
		return s.sendAt.SendBatchAt(dsts, payload, ats)
	}
	return sendEach(len(dsts), func(i int) error { return s.timed.SendAt(dsts[i], payload, ats[i]) })
}

func (s *scalarBatch) RecvBatch(into []Datagram) (int, error) {
	if s.recv != nil {
		return s.recv.RecvBatch(into)
	}
	return recvOne(s.Transport, into)
}

// sendEach performs n scalar sends in order, stopping at the first error,
// so the caller sees the batch API's partial-progress contract.
func sendEach(n int, send func(i int) error) (int, error) {
	for i := 0; i < n; i++ {
		if err := send(i); err != nil {
			return i, err
		}
	}
	return n, nil
}

// recvOne fills into[0] with one scalar Recv.
func recvOne(tr Transport, into []Datagram) (int, error) {
	if len(into) == 0 {
		return 0, nil
	}
	src, payload, at, err := tr.Recv()
	if err != nil {
		return 0, err
	}
	into[0] = Datagram{Src: src, Payload: payload, At: at}
	return 1, nil
}

// Transient send errno policy. At line rate sendmmsg/sendto routinely fail
// with buffer-pressure errnos — ENOBUFS when the qdisc or socket buffer is
// full, EAGAIN on a momentarily unwritable socket, ENOMEM under transient
// kernel memory pressure, EINTR on signal delivery. These are not campaign
// failures: the engine retries them with bounded exponential backoff on the
// campaign clock and only fails the campaign when they persist (or when the
// error is not transient at all — a down interface, a closed socket).
var transientSendErrnos = []error{
	syscall.ENOBUFS,
	syscall.EAGAIN,
	syscall.EWOULDBLOCK,
	syscall.ENOMEM,
	syscall.EINTR,
}

// TransientSendError reports whether a Send/SendBatch error is a transient
// line-rate condition the engine should retry rather than abort on.
func TransientSendError(err error) bool {
	for _, e := range transientSendErrnos {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// Send-retry tuning: backoff starts at sendBackoffBase, doubles per
// consecutive stall up to sendBackoffMax, and the campaign fails after
// maxSendStalls consecutive attempts with no progress. On the virtual clock
// the backoffs are logical time, so simulated campaigns with injected
// transient failures stay deterministic.
const (
	sendBackoffBase = 2 * time.Millisecond
	sendBackoffMax  = 256 * time.Millisecond
	maxSendStalls   = 10
)

// maxPaceDebt caps how far the deadline pacer lets a worker fall behind its
// ideal send timeline (after a retry stall, say) before forgiving the
// backlog: without the cap, a long stall would be followed by an unbounded
// full-speed burst as the worker "caught up".
const maxPaceDebt = time.Second
