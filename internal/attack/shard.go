package attack

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/layers"
	"repro/internal/parallel"
)

// Sharded monitor. With MonitorOptions.Shards > 0 the Monitor's N flow
// cores run on N worker goroutines, RSS-style: the front end (the
// caller's goroutine) parses pcap framing, decodes each packet and hands
// it to the core owning its canonical flow hash over a bounded SPSC ring;
// each core never touches another core's flows. The front end keeps
// everything the cores must agree on — the capture clock, the ingest
// sequence, the sweep cadence and the wheel epoch — so the only
// sharding-specific work is restoring one deterministic event order:
//
//   - Every message carries its global sequence number, and every event a
//     core emits is tagged (seq, flowFirstSeq, emission index). The front
//     end merges per-shard event batches by that tag, which reproduces
//     the single-core emission order: packet events in dispatch order,
//     sweep and close events in flow first-seen order within their step.
//   - Idle sweeps are broadcast at their own sequence number, one slot
//     before the packet that triggered them, so expirations sort ahead of
//     that packet's events.
//   - Events are only delivered up to the merge watermark: the highest
//     sequence every shard has fully processed (an idle shard is counted
//     as caught up). Nothing can arrive out of order later.
//
// Close runs the same phases and the same verdict reduction as at Shards
// 0 (monitor.go); TestShardEquivalence pins byte-identical event streams
// and inferences at shards ∈ {0, 1, 2, 4, 8}.

// shardQueueDepth bounds each shard's inbox. Full inboxes block the
// front end (backpressure), so slow shards bound memory instead of
// growing a backlog.
const shardQueueDepth = 512

// pumpEvery is how many dispatched packets pass between merge pumps
// (event delivery) during a feed call.
const pumpEvery = 128

type shardMsgKind uint8

const (
	msgPacket shardMsgKind = iota
	msgSweep
	msgCall
)

// shardMsg is one unit of work for a core.
type shardMsg struct {
	kind  shardMsgKind
	seq   uint64
	clock time.Time // the front end's capture clock at dispatch

	pkt  layers.Packet   // msgPacket
	key  layers.FlowKey  // msgPacket: its canonical key; msgSweep: the exempt flow
	call func(*flowCore) // msgCall: runs on the core's goroutine
}

// evTag orders one event in the merged stream.
type evTag struct {
	seq uint64 // sequence of the producing message
	key uint64 // flow first-seen sequence (0 for packet-driven events)
	sub uint32 // emission index within the message
}

func (a evTag) less(b evTag) bool {
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.sub < b.sub
}

type taggedEvent struct {
	tag evTag
	ev  Event
}

// monShard is one worker: a core, its inbox, and the event outbox the
// front end drains for the merge.
type monShard struct {
	core *flowCore
	in   *parallel.SPSC[shardMsg]

	mu     sync.Mutex
	out    []taggedEvent
	tagSeq uint64 // sequence of the latest tagged event
	sub    uint32 // emission index within tagSeq

	lastSent uint64        // highest seq dispatched to this shard (front-end side)
	lastDone atomic.Uint64 // highest seq fully processed (events published first)
}

// startShards builds n cores and starts one worker goroutine per core.
func (m *Monitor) startShards(n int) {
	for i := 0; i < n; i++ {
		s := &monShard{in: parallel.NewSPSC[shardMsg](shardQueueDepth)}
		s.core = m.newCore(s.tag)
		m.cores = append(m.cores, s.core)
		m.shards = append(m.shards, s)
		m.wg.Add(1)
		go s.run(&m.wg)
	}
}

// run is the shard worker loop.
func (s *monShard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		msg, ok := s.in.Pop()
		if !ok {
			return
		}
		s.core.handle(msg)
		// Publish completion only after every event of this message is in
		// the outbox: the front end's watermark then guarantees merged
		// batches are complete prefixes.
		s.lastDone.Store(msg.seq)
	}
}

// tag files one core event in the outbox under its merge tag.
func (s *monShard) tag(ev Event) {
	c := s.core
	s.mu.Lock()
	if c.seq != s.tagSeq {
		s.tagSeq, s.sub = c.seq, 0
	}
	s.out = append(s.out, taggedEvent{evTag{c.seq, c.evKey, s.sub}, ev})
	s.sub++
	s.mu.Unlock()
}

// shardOf maps a canonical flow key to its owning shard: FNV-1a over
// both endpoints. The hash is fixed (not seeded) so a capture shards
// identically across runs.
func shardOf(k layers.FlowKey, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	src, dst := k.SrcAddr.As16(), k.DstAddr.As16()
	for _, b := range src {
		mix(b)
	}
	for _, b := range dst {
		mix(b)
	}
	mix(byte(k.SrcPort >> 8))
	mix(byte(k.SrcPort))
	mix(byte(k.DstPort >> 8))
	mix(byte(k.DstPort))
	// FNV's low bits mix weakly (each multiply only propagates upward),
	// and n is usually a power of two; finish with an avalanche round so
	// the modulo sees every input bit.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(n))
}

// pump drains shard outboxes and delivers every merged event at or below
// the watermark — the highest sequence all shards have fully processed. A
// no-op at Shards 0, where events are delivered as they fire.
func (m *Monitor) pump() {
	if m.shards == nil {
		return
	}
	m.sincePump = 0
	wm := m.seq
	for _, s := range m.shards {
		if done := s.lastDone.Load(); done < s.lastSent && done < wm {
			wm = done
		}
	}
	m.collect()
	m.deliver(wm)
}

// collect moves shard outboxes into the pending merge set.
func (m *Monitor) collect() {
	for _, s := range m.shards {
		s.mu.Lock()
		m.pending = append(m.pending, s.out...)
		s.out = s.out[:0]
		s.mu.Unlock()
	}
}

// deliver sorts and emits every pending event tagged at or below wm.
func (m *Monitor) deliver(wm uint64) {
	var ready, later []taggedEvent
	for _, te := range m.pending {
		if te.tag.seq <= wm {
			ready = append(ready, te)
		} else {
			later = append(later, te)
		}
	}
	if len(ready) == 0 {
		return
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i].tag.less(ready[j].tag) })
	m.pending = later
	for _, te := range ready {
		m.onEvent(te.ev)
	}
}

// stop joins the workers and delivers every merged event. From then on
// the cores run inline on the caller's goroutine. A no-op at Shards 0.
func (m *Monitor) stop() {
	if m.shards == nil || m.stopped {
		return
	}
	m.stopped = true
	for _, s := range m.shards {
		s.in.Close()
	}
	m.wg.Wait()
	m.collect()
	m.deliver(m.seq)
}
