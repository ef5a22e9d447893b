// Package cluster replicates a holidayd owner's write-ahead log to
// followers over the internal/wire binary framing, turning the per-record
// WAL sequences of internal/persist into a replication log.
//
// The owner side (Source) wraps the node's journal: every record a
// community logs is also stamped into an in-memory ring and fanned out to
// subscribed followers as Records frames on a raw TCP stream. A follower
// (Follower) subscribes from the last sequence it has applied; when the
// ring still covers that point the owner streams just the missing records,
// otherwise it first sends one Snapshot frame per community (the exported
// CommunityState, cutoff-stamped) and then the ring — replay through
// Owner.Apply is idempotent against the cutoffs, so the overlap is
// harmless. Heartbeat frames advertise the last sequence streamed to the
// subscriber, so an idle follower still learns it is caught up and can
// measure lag.
//
// Followers fence every community the stream hands them (service.Owner
// fencing): reads serve from the replica's frozen-schedule caches while
// direct writes fail closed with not_owner until a promotion lifts the
// fence.
package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/wire"
)

// DefaultRingSize is the records a Source retains for catch-up before a
// reconnecting follower is pushed onto the snapshot path.
const DefaultRingSize = 8192

// DefaultHeartbeat is the idle-stream heartbeat interval.
const DefaultHeartbeat = 500 * time.Millisecond

// subBuf is the per-subscriber record queue; a follower that falls this far
// behind the live stream is dropped and reconnects through catch-up.
const subBuf = 4096

// maxRecsPerFrame bounds the records one Records frame carries so a busy
// stream flushes in digestible chunks.
const maxRecsPerFrame = 256

// repRec is one replicated record: its journal sequence plus the marshaled
// service.Record (the same JSON object wal.jsonl stores on the owner).
type repRec struct {
	seq  uint64
	data []byte
}

// SourceOpts configures NewSource.
type SourceOpts struct {
	// Owner is the community store snapshots are exported from (required).
	Owner *service.Owner
	// Journal is the durable journal the source wraps — usually the
	// persist.WAL. Nil runs the source as the journal itself (in-memory
	// sequence assignment, no disk), the no-durability configuration.
	Journal service.Journal
	// Start seeds the sequence counter (Journal.Seq() after recovery) so
	// replication sequences line up with the WAL's.
	Start uint64
	// RingSize overrides the catch-up ring capacity; 0 means
	// DefaultRingSize.
	RingSize int
	// Heartbeat overrides the heartbeat interval; 0 means DefaultHeartbeat.
	Heartbeat time.Duration
	// Router, when set, lets this node accept live handoffs on the same
	// listener: an incoming HandoffOffer installs the offered placement
	// table and takes ownership of the handed-off community. Nil refuses
	// offers.
	Router *service.Router
	// OnTakeover, when set, runs after this node takes ownership of a
	// community through a handoff (holidayd persists a snapshot so the
	// restored-not-logged state survives a crash).
	OnTakeover func(id string)
}

// Source is the owner half of the replication stream. It implements
// service.Journal and service.BatchJournal: attach it (service.Opts.Journal)
// in place of the raw WAL and every logged record is both durable and
// replicated. Safe for concurrent use.
type Source struct {
	owner      *service.Owner
	inner      service.Journal
	heartbeat  time.Duration
	router     *service.Router
	onTakeover func(id string)

	mu    sync.Mutex
	seq   uint64
	ring  []repRec // circular buffer
	start int      // index of the oldest record
	count int
	subs  map[*subscriber]struct{}

	lnMu   sync.Mutex
	ln     net.Listener
	closed bool
	wg     sync.WaitGroup
}

// subscriber is one follower connection's send side.
type subscriber struct {
	ch   chan repRec
	drop chan struct{} // closed when the fan-out gives up on a slow follower
	once sync.Once
}

func (s *subscriber) dropNow() { s.once.Do(func() { close(s.drop) }) }

// NewSource wraps a journal (or stands in for one) as a replication source.
func NewSource(o SourceOpts) (*Source, error) {
	if o.Owner == nil {
		return nil, fmt.Errorf("cluster: NewSource requires an Owner")
	}
	if o.RingSize < 1 {
		o.RingSize = DefaultRingSize
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = DefaultHeartbeat
	}
	return &Source{
		owner:      o.Owner,
		inner:      o.Journal,
		heartbeat:  o.Heartbeat,
		router:     o.Router,
		onTakeover: o.OnTakeover,
		seq:        o.Start,
		ring:       make([]repRec, o.RingSize),
		subs:       make(map[*subscriber]struct{}),
	}, nil
}

// Seq returns the last replicated sequence.
func (s *Source) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Log implements service.Journal: the record is logged to the wrapped
// journal (write-ahead durability first), then ringed and fanned out. The
// source mutex is held across the inner append so ring order always matches
// sequence order — taking it after would let concurrent appends fan out
// records out of order.
func (s *Source) Log(rec service.Record) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var seq uint64
	if s.inner != nil {
		var err error
		if seq, err = s.inner.Log(rec); err != nil {
			return 0, err
		}
	} else {
		seq = s.seq + 1
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("cluster: encode replication record: %w", err)
	}
	s.seq = seq
	s.pushLocked(repRec{seq: seq, data: data})
	return seq, nil
}

// LogBatch implements service.BatchJournal; the wrapped journal assigns
// consecutive sequences (the BatchJournal contract), which is what lets the
// batch fan out record-by-record.
func (s *Source) LogBatch(recs []service.Record) (uint64, error) {
	if len(recs) == 0 {
		return s.Seq(), nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var last uint64
	if bj, ok := s.inner.(service.BatchJournal); ok {
		var err error
		if last, err = bj.LogBatch(recs); err != nil {
			return 0, err
		}
	} else if s.inner != nil {
		for _, rec := range recs {
			var err error
			if last, err = s.inner.Log(rec); err != nil {
				return 0, err
			}
		}
	} else {
		last = s.seq + uint64(len(recs))
	}
	first := last - uint64(len(recs)) + 1
	for i, rec := range recs {
		data, err := json.Marshal(rec)
		if err != nil {
			return 0, fmt.Errorf("cluster: encode replication record: %w", err)
		}
		s.pushLocked(repRec{seq: first + uint64(i), data: data})
	}
	s.seq = last
	return last, nil
}

// pushLocked appends a record to the ring and fans it out; caller holds mu.
func (s *Source) pushLocked(r repRec) {
	if s.count == len(s.ring) {
		s.ring[s.start] = r
		s.start = (s.start + 1) % len(s.ring)
	} else {
		s.ring[(s.start+s.count)%len(s.ring)] = r
		s.count++
	}
	for sub := range s.subs {
		select {
		case sub.ch <- r:
		default:
			// The follower is not draining: drop it rather than stall the
			// write path; it reconnects through catch-up.
			delete(s.subs, sub)
			sub.dropNow()
		}
	}
}

// backlogLocked copies the ring records with sequence > fromSeq; caller
// holds mu. covered reports whether the ring (plus fromSeq itself) reaches
// back far enough — when false the subscriber needs the snapshot path
// first.
func (s *Source) backlogLocked(fromSeq uint64) (recs []repRec, covered bool) {
	if s.count == 0 {
		return nil, fromSeq >= s.seq
	}
	oldest := s.ring[s.start].seq
	covered = fromSeq+1 >= oldest
	for i := 0; i < s.count; i++ {
		r := s.ring[(s.start+i)%len(s.ring)]
		if r.seq > fromSeq {
			recs = append(recs, r)
		}
	}
	return recs, covered
}

// TailFor copies the ring records for one community with sequences in
// (after, through]. covered reports whether the ring reaches back far
// enough that no record in that range can have been evicted — when false
// the caller must fall back to a fresh snapshot.
func (s *Source) TailFor(community string, after, through uint64) (recs []wire.RawRecord, covered bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return nil, after >= s.seq
	}
	covered = after+1 >= s.ring[s.start].seq
	for i := 0; i < s.count; i++ {
		r := s.ring[(s.start+i)%len(s.ring)]
		if r.seq <= after || r.seq > through {
			continue
		}
		var rec struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(r.data, &rec) == nil && rec.ID == community {
			recs = append(recs, wire.RawRecord{Seq: r.seq, Data: r.data})
		}
	}
	return recs, covered
}

// Serve accepts follower subscriptions on l until Close. It blocks; run it
// in a goroutine.
func (s *Source) Serve(l net.Listener) error {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		l.Close()
		return fmt.Errorf("cluster: source is closed")
	}
	s.ln = l
	s.lnMu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.lnMu.Lock()
			closed := s.closed
			s.lnMu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting, disconnects subscribers, and waits for their
// goroutines. The wrapped journal is not closed — its lifecycle belongs to
// the caller.
func (s *Source) Close() {
	s.lnMu.Lock()
	s.closed = true
	ln := s.ln
	s.lnMu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.mu.Lock()
	for sub := range s.subs {
		delete(s.subs, sub)
		sub.dropNow()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// handle runs one peer connection. The first frame picks the protocol: a
// Subscribe opens a replication stream (catch up, then live records and
// heartbeats until the peer disconnects or falls too far behind); a
// HandoffOffer runs the receiving half of a live handoff.
func (s *Source) handle(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, buf0, err := wire.ReadFrame(conn, nil)
	if err != nil {
		return
	}
	if f.Kind == wire.KindHandoffOffer {
		s.receiveHandoff(conn, f, buf0)
		return
	}
	fromSeq, _, err := f.Subscribe()
	if err != nil {
		return
	}
	_ = conn.SetReadDeadline(time.Time{})

	// Register first, then compute the catch-up set: records logged from
	// here on buffer in sub.ch, the ring copy covers (fromSeq, watermark],
	// and community exports below reflect at least the watermark — between
	// the three every sequence reaches the follower at least once, and
	// Apply's idempotence absorbs the overlaps.
	sub := &subscriber{ch: make(chan repRec, subBuf), drop: make(chan struct{})}
	s.mu.Lock()
	backlog, covered := s.backlogLocked(fromSeq)
	watermark := s.seq
	s.subs[sub] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.subs, sub)
		s.mu.Unlock()
		sub.dropNow()
	}()

	// A half-closed or dying peer must not leak this goroutine: the read
	// side only ever returns when the connection drops (followers send
	// nothing after subscribing), and that drops the subscriber.
	go func() {
		var b [1]byte
		_, _ = conn.Read(b[:])
		sub.dropNow()
	}()

	var buf []byte
	write := func(frame []byte) bool {
		_ = conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
		_, err := conn.Write(frame)
		return err == nil
	}

	if !covered {
		// Snapshot catch-up, one community per frame: a mega community's
		// state must not push a multi-community frame past wire.MaxFrame.
		for _, id := range s.owner.List() {
			c, ok := s.owner.Get(id)
			if !ok {
				continue
			}
			st := c.Export()
			data, err := json.Marshal(st)
			if err != nil {
				return
			}
			if !write(wire.AppendSnapshot(buf[:0], st.Seq, data)) {
				return
			}
		}
	}
	sent := fromSeq
	flush := func(recs []repRec) bool {
		for len(recs) > 0 {
			n := len(recs)
			if n > maxRecsPerFrame {
				n = maxRecsPerFrame
			}
			buf = buf[:0]
			raw := make([]wire.RawRecord, n)
			for i, r := range recs[:n] {
				raw[i] = wire.RawRecord{Seq: r.seq, Data: r.data}
			}
			if !write(wire.AppendRecords(buf, raw)) {
				return false
			}
			sent = recs[n-1].seq
			recs = recs[n:]
		}
		return true
	}
	if !flush(backlog) {
		return
	}
	// The catch-up watermark heartbeat: everything at or below it has been
	// sent (as records or inside snapshots), so the follower advances its
	// subscription point even when the ring alone could not prove it.
	if sent < watermark {
		sent = watermark
	}
	if !write(wire.AppendHeartbeat(buf[:0], sent)) {
		return
	}

	ticker := time.NewTicker(s.heartbeat)
	defer ticker.Stop()
	var pending []repRec
	for {
		pending = pending[:0]
		select {
		case r := <-sub.ch:
			pending = append(pending, r)
			// Drain whatever else is queued so a busy stream coalesces into
			// batched frames.
			for len(pending) < subBuf {
				select {
				case r := <-sub.ch:
					pending = append(pending, r)
				default:
					goto drained
				}
			}
		drained:
			if !flush(pending) {
				return
			}
		case <-ticker.C:
			// Heartbeats advertise the last sequence streamed to this
			// follower; records still queued in sub.ch are not claimed.
			if !write(wire.AppendHeartbeat(buf[:0], sent)) {
				return
			}
		case <-sub.drop:
			return
		}
	}
}
