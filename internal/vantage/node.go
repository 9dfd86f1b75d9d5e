package vantage

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"snmpv3fp/internal/scanner"
	"snmpv3fp/internal/wire"
)

// ErrKilled is returned by RunNode when a configured kill hook fired: the
// node dropped its connection mid-campaign on purpose, simulating a vantage
// process dying. Test-only behavior; production nodes never set the hooks.
var ErrKilled = errors.New("vantage: kill hook fired")

// NodeConfig tunes one vantage worker.
type NodeConfig struct {
	// Name identifies the node to the coordinator (logs and metrics only;
	// correctness never depends on it).
	Name string
	// Runner executes leases; defaults to SimRunner.
	Runner Runner
	// HeartbeatEvery is the liveness interval while a lease is running
	// (default 500ms). It must be comfortably below the coordinator's
	// heartbeat TTL.
	HeartbeatEvery time.Duration
	// KillAfterShards, when > 0, makes the node sever its connection
	// without warning immediately after completing that many leases.
	// KillAfterPartials does the same after writing that many Partial
	// frames, so the death lands mid-shard with responses already
	// streamed. Kill hooks exist for the re-lease determinism tests.
	KillAfterShards   int
	KillAfterPartials int
}

func (c *NodeConfig) fill() {
	if c.Runner == nil {
		c.Runner = SimRunner{}
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 500 * time.Millisecond
	}
	if c.Name == "" {
		c.Name = "vantage"
	}
}

// nodeConn serializes frame writes: the heartbeat goroutine and the lease
// loop share one connection.
type nodeConn struct {
	mu   sync.Mutex
	conn net.Conn
}

func (c *nodeConn) write(typ byte, body []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return wire.WriteFrame(c.conn, typ, body)
}

// RunNode speaks the vantage side of the coordinator protocol over conn:
// hello, receive the campaign spec, then loop — receive a lease, scan it
// with the configured Runner while heartbeating, stream the captured
// responses back in Partial chunks, close the lease with ShardDone — until
// the coordinator sends CampaignDone. Cancelling ctx severs the connection
// and returns ctx's error.
//
// RunNode always closes conn before returning.
func RunNode(ctx context.Context, conn net.Conn, cfg NodeConfig) error {
	cfg.fill()
	defer conn.Close()

	// A cancelled context must unblock the read loop, which otherwise sits
	// in ReadFrame indefinitely between leases.
	watchdog := make(chan struct{})
	defer close(watchdog)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watchdog:
		}
	}()

	nc := &nodeConn{conn: conn}
	if err := nc.write(frameHello, AppendHello(nil, Hello{Name: cfg.Name, Version: protocolVersion})); err != nil {
		return err
	}
	typ, body, err := wire.ReadFrame(conn)
	if err != nil {
		return err
	}
	if typ != frameCampaign {
		return fmt.Errorf("vantage: expected campaign frame, got type %d", typ)
	}
	spec, err := ParseCampaignSpec(body)
	if err != nil {
		return err
	}

	shardsDone, partialsSent := 0, 0
	for {
		typ, body, err := wire.ReadFrame(conn)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		switch typ {
		case frameCampaignDone:
			return nil
		case frameLease:
			lease, err := ParseLease(body)
			if err != nil {
				return err
			}
			res, err := runLeaseWithHeartbeat(ctx, nc, cfg, spec, lease)
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return err
			}
			// Stream the shard's responses home in bounded chunks, then
			// close the lease with its counters. The kill hooks sever the
			// connection at exactly these frame boundaries so the tests can
			// place a death before, between, and after partial chunks.
			for off := 0; off < len(res.Responses) || off == 0; off += partialChunk {
				end := off + partialChunk
				if end > len(res.Responses) {
					end = len(res.Responses)
				}
				p := Partial{Epoch: lease.Epoch, Shard: lease.Shard, Viewpoint: lease.Viewpoint,
					Responses: res.Responses[off:end]}
				if err := nc.write(framePartial, AppendPartial(nil, p)); err != nil {
					return err
				}
				partialsSent++
				if cfg.KillAfterPartials > 0 && partialsSent >= cfg.KillAfterPartials {
					conn.Close()
					return ErrKilled
				}
				if end == len(res.Responses) {
					break
				}
			}
			d := ShardDone{
				Epoch: lease.Epoch, Shard: lease.Shard, Viewpoint: lease.Viewpoint,
				Sent: res.Sent, Retried: res.Retried, OffPath: res.OffPath,
				ProbeMsgID: res.ProbeMsgID, Started: res.Started, Finished: res.Finished,
			}
			if err := nc.write(frameShardDone, AppendShardDone(nil, d)); err != nil {
				return err
			}
			shardsDone++
			if cfg.KillAfterShards > 0 && shardsDone >= cfg.KillAfterShards {
				conn.Close()
				return ErrKilled
			}
		default:
			return fmt.Errorf("vantage: unexpected frame type %d from coordinator", typ)
		}
	}
}

// runLeaseWithHeartbeat runs one lease while a sibling goroutine heartbeats
// the coordinator, and joins the heartbeater before returning so no
// heartbeat can interleave with the Partial frames that follow.
func runLeaseWithHeartbeat(ctx context.Context, nc *nodeConn, cfg NodeConfig, spec CampaignSpec, lease Lease) (*scanner.Result, error) {
	hbCtx, stopHB := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(cfg.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				// A failed heartbeat means the connection is gone; the
				// lease loop will notice on its next write.
				if nc.write(frameHeartbeat, AppendHeartbeat(nil, Heartbeat{Epoch: lease.Epoch})) != nil {
					return
				}
			}
		}
	}()
	res, err := cfg.Runner.RunLease(ctx, spec, lease)
	stopHB()
	hbWG.Wait()
	return res, err
}
