package core

import (
	"fmt"
	"sync"

	"repro/internal/graph"
)

// Schedule is random access into a scheduler's infinite happy-set sequence.
// Where Scheduler is a cursor (one Next per holiday, state advances), a
// Schedule is a value: any holiday, window, or per-node query can be
// answered without disturbing other queries. For the paper's perfectly
// periodic algorithms (§4, §5) every answer is closed-form arithmetic over
// Period/Offset; stateful algorithms (§3, the baselines) are served through
// a bounded replay/memo cursor.
//
// All implementations in this package are safe for concurrent use: the
// closed-form schedules are immutable, and the replay cursor serializes
// internally.
type Schedule interface {
	// Name identifies the underlying algorithm for reports.
	Name() string
	// HappySet returns the happy families at holiday t ≥ 1, in increasing
	// node order, as a fresh slice.
	HappySet(t int64) []int
	// Window streams holidays from..to (inclusive, from ≥ 1, to at most
	// MaxHoliday) in order, calling visit once per holiday. The happy slice
	// is in increasing node order and only valid for the duration of the
	// callback — implementations reuse buffers. visit must not call back
	// into the same Schedule: replay cursors hold their lock across the
	// callback, so a reentrant query self-deadlocks.
	Window(from, to int64, visit func(t int64, happy []int))
	// NextHappy returns the first holiday ≥ from at which family v is happy,
	// or 0 if none exists within the implementation's search bound (periodic
	// schedules succeed for every non-vacant entity; replay cursors scan at
	// most MaxNextHappyScan holidays).
	NextHappy(v int, from int64) int64
	// RandomAccess reports whether HappySet and Window cost is independent
	// of the query position — true for the closed-form periodic schedules,
	// false for replay cursors, which pay for every holiday between their
	// current position and the query. Random-access schedules can be
	// sharded: engine workers query disjoint windows concurrently.
	RandomAccess() bool
}

// NodeCounter is the optional interface of schedules that know how many
// families they cover (the closed-form periodic snapshots do; replay cursors
// do not). The serving layer uses it to bounds-check family ids against the
// frozen snapshot it already holds instead of re-locking the live community.
type NodeCounter interface {
	Nodes() int
}

// BitWindower is the optional interface of schedules that can stream a
// window as word-packed happy bitmaps — one ⌈n/64⌉-word graph.Bitset row per
// holiday — without materializing []int rows. The closed-form periodic
// schedules implement it by walking each node's arithmetic progression and
// OR-ing bits straight into the row block, which is what the binary wire
// format (internal/wire) serializes. The row passed to visit is only valid
// for the duration of the callback.
type BitWindower interface {
	WindowBits(from, to int64, visit func(t int64, row graph.Bitset))
}

// WindowBits streams s's window [from, to] as packed bitmap rows over n
// nodes, using the schedule's native bitmap emission when it has one
// (BitWindower) and packing the []int rows of Window otherwise. The row is
// reused across holidays: it is only valid during visit.
func WindowBits(s Schedule, n int, from, to int64, visit func(t int64, row graph.Bitset)) {
	if bw, ok := s.(BitWindower); ok {
		bw.WindowBits(from, to, visit)
		return
	}
	row := graph.NewBitset(n)
	s.Window(from, to, func(t int64, happy []int) {
		row.Reset()
		for _, v := range happy {
			row.Set(v)
		}
		visit(t, row)
	})
}

// windowBlock is the number of holidays a Window call buckets at a time,
// bounding working memory regardless of window length.
const windowBlock = 4096

// MaxHoliday is the largest holiday index a Schedule serves. Periods are at
// most 2^62 (codewords are capped at 62 bits), so closed-form arithmetic on
// holidays ≤ 2^62 cannot overflow int64; queries beyond it return nothing
// (Window) or 0 (NextHappy) instead of wrapping.
const MaxHoliday = int64(1) << 62

// MaxNextHappyScan bounds how many holidays a replay-cursor NextHappy scans
// before giving up. The paper's schedulers wait at most O(deg) holidays, so
// the bound only bites for adversarial queries on pathological schedulers.
const MaxNextHappyScan = 1 << 16

// PeriodicSchedule answers every query in closed form from a snapshot of
// per-entity periods and offsets: entity v is happy exactly at the holidays
// t ≡ Offset(v) (mod Period(v)). Period 0 (with offset 0) marks a vacant
// entity that is never happy — a poly edge slot with no edge in it — so the
// classic per-family and the poly per-edge-slot closed forms share this one
// representation and window walker. The assignment is immutable after
// construction; scratch only holds reusable Window working buffers.
type PeriodicSchedule struct {
	name    string
	periods []int64   // per entity; 0 = vacant
	offsets []int64   // per entity; in [0, period), 0 when vacant
	scratch sync.Pool // *windowScratch, see startWindow
}

var (
	_ NodeCounter = (*PeriodicSchedule)(nil)
	_ BitWindower = (*PeriodicSchedule)(nil)
)

// windowScratch is the per-window working set — the next-event cursor per
// entity plus one block of happy-set buckets (Window) or packed rows as a
// flat word slice (WindowBits) — pooled per schedule so concurrent window
// queries against a cached schedule allocate nothing in steady state.
type windowScratch struct {
	next    []int64
	happyAt [][]int
	rows    []uint64
}

// NewPeriodicSchedule snapshots a perfectly periodic scheduler's closed form
// (Period/Offset for each of the n nodes) into an immutable random-access
// schedule. The scheduler is never advanced — the Periodic contract
// guarantees the snapshot reproduces Next exactly, and a scheduler that
// breaks the contract (period < 1 or offset out of range) panics.
func NewPeriodicSchedule(p Periodic, n int) *PeriodicSchedule {
	periods := make([]int64, n)
	offsets := make([]int64, n)
	for v := range periods {
		periods[v] = p.Period(v)
		offsets[v] = p.Offset(v)
	}
	ps, err := NewFixedPeriodic(p.Name(), periods, offsets)
	if err != nil {
		panic(fmt.Sprintf("core: %s violates the Periodic contract: %v", p.Name(), err))
	}
	return ps
}

// NewFixedPeriodic builds a random-access schedule directly from per-entity
// periods and offsets, taking ownership of both slices. Each entity needs
// period ≥ 1 and 0 ≤ offset < period, or period 0 and offset 0 for a vacant
// entity. This is the snapshot form the serving layer caches: a frozen copy
// of a dynamic scheduler's current assignment that stays valid while the
// live instance churns on.
func NewFixedPeriodic(name string, periods, offsets []int64) (*PeriodicSchedule, error) {
	if len(periods) != len(offsets) {
		return nil, fmt.Errorf("core: %d periods but %d offsets", len(periods), len(offsets))
	}
	for v, p := range periods {
		switch off := offsets[v]; {
		case p < 0:
			return nil, fmt.Errorf("core: entity %d has negative period %d", v, p)
		case p == 0 && off != 0:
			return nil, fmt.Errorf("core: vacant entity %d has offset %d, want 0", v, off)
		case p > 0 && (off < 0 || off >= p):
			return nil, fmt.Errorf("core: entity %d has offset %d outside [0, %d)", v, off, p)
		}
	}
	return &PeriodicSchedule{name: name, periods: periods, offsets: offsets}, nil
}

// Name implements Schedule.
func (ps *PeriodicSchedule) Name() string { return ps.name }

// Nodes implements NodeCounter: the number of entities (families, or poly
// edge slots) the closed-form snapshot covers.
func (ps *PeriodicSchedule) Nodes() int { return len(ps.periods) }

// Period returns entity v's hosting period; 0 marks a vacant entity.
func (ps *PeriodicSchedule) Period(v int) int64 { return ps.periods[v] }

// Offset returns entity v's hosting phase in [0, Period(v)); 0 when vacant.
func (ps *PeriodicSchedule) Offset(v int) int64 { return ps.offsets[v] }

// RandomAccess implements Schedule: closed-form queries cost O(1) per entity.
func (ps *PeriodicSchedule) RandomAccess() bool { return true }

// HappySet implements Schedule: nil outside [1, MaxHoliday], like Window.
func (ps *PeriodicSchedule) HappySet(t int64) []int {
	if t < 1 || t > MaxHoliday {
		return nil
	}
	var happy []int
	for v, p := range ps.periods {
		if p > 0 && t%p == ps.offsets[v] {
			happy = append(happy, v)
		}
	}
	return happy
}

// NextHappy implements Schedule: the smallest t ≥ max(from, 1) with
// t ≡ offset (mod period), or 0 for vacant entities and queries beyond
// MaxHoliday.
func (ps *PeriodicSchedule) NextHappy(v int, from int64) int64 {
	if v < 0 || v >= len(ps.periods) || from > MaxHoliday {
		return 0
	}
	p := ps.periods[v]
	if p == 0 {
		return 0
	}
	if from < 1 {
		from = 1
	}
	return from + ((ps.offsets[v]-from)%p+p)%p
}

// startWindow clamps to at MaxHoliday and, for a non-empty window, takes a
// pooled scratch whose next cursor holds every entity's first happy holiday
// ≥ from (0 for vacant entities). It returns a nil scratch for an empty
// window; otherwise the caller puts ws back into the pool when done.
func (ps *PeriodicSchedule) startWindow(from, to int64) (ws *windowScratch, clampedTo, blockLen int64) {
	to = min(to, MaxHoliday)
	if from < 1 || to < from {
		return nil, 0, 0
	}
	ws, _ = ps.scratch.Get().(*windowScratch)
	if ws == nil {
		ws = &windowScratch{}
	}
	n := len(ps.periods)
	if cap(ws.next) < n {
		ws.next = make([]int64, n)
	}
	ws.next = ws.next[:n]
	for v := range ws.next {
		ws.next[v] = ps.NextHappy(v, from)
	}
	return ws, to, min(to-from+1, windowBlock)
}

// Window implements Schedule by walking every live entity's arithmetic
// progression through the window in windowBlock-sized chunks: each block
// buckets the progressions per holiday with one reused bucket array, so
// memory stays O(n + block) and work is O(n + window + happiness events) —
// never a scan of the holidays before from.
func (ps *PeriodicSchedule) Window(from, to int64, visit func(t int64, happy []int)) {
	ws, to, blockLen := ps.startWindow(from, to)
	if ws == nil {
		return
	}
	defer ps.scratch.Put(ws)
	if int64(cap(ws.happyAt)) < blockLen {
		grown := make([][]int, blockLen)
		copy(grown, ws.happyAt[:cap(ws.happyAt)])
		ws.happyAt = grown
	}
	happyAt, next := ws.happyAt[:blockLen], ws.next
	for blo := from; blo <= to; blo += blockLen {
		bhi := min(blo+blockLen-1, to)
		for i := range happyAt[:bhi-blo+1] {
			happyAt[i] = happyAt[i][:0]
		}
		for v := 0; v < len(next); v++ {
			t := next[v]
			if t == 0 {
				continue // vacant
			}
			for ; t <= bhi; t += ps.periods[v] {
				happyAt[t-blo] = append(happyAt[t-blo], v)
			}
			next[v] = t
		}
		for t := blo; t <= bhi; t++ {
			visit(t, happyAt[t-blo])
		}
	}
}

// WindowBits implements BitWindower in closed form: each live entity's
// progression is walked through the window in windowBlock-sized chunks,
// OR-ing its bit straight into the packed row of every holiday it hosts —
// no []int row is ever materialized. Work is O(n + window·⌈n/64⌉ word
// clears + happiness events), memory O(n + block·⌈n/64⌉).
func (ps *PeriodicSchedule) WindowBits(from, to int64, visit func(t int64, row graph.Bitset)) {
	ws, to, blockLen := ps.startWindow(from, to)
	if ws == nil {
		return
	}
	defer ps.scratch.Put(ws)
	words := (len(ps.periods) + 63) / 64
	if need := int(blockLen) * words; cap(ws.rows) < need {
		ws.rows = make([]uint64, need)
	}
	rows, next := ws.rows, ws.next
	for blo := from; blo <= to; blo += blockLen {
		bhi := min(blo+blockLen-1, to)
		clear(rows[:int(bhi-blo+1)*words])
		for v := 0; v < len(next); v++ {
			t := next[v]
			if t == 0 {
				continue // vacant
			}
			wv, bit := v>>6, uint64(1)<<uint(v&63)
			for ; t <= bhi; t += ps.periods[v] {
				rows[int(t-blo)*words+wv] |= bit
			}
			next[v] = t
		}
		for t := blo; t <= bhi; t++ {
			i := int(t-blo) * words
			visit(t, graph.Bitset(rows[i:i+words]))
		}
	}
}

// replaySchedule adapts a stateful Scheduler to the Schedule interface with
// a bounded memo: the last memoCap happy sets stay cached, repeated and
// overlapping queries inside that window are served without re-simulation,
// and a seek before the memo reconstructs a fresh scheduler via the factory
// and replays from holiday 1.
type replaySchedule struct {
	name    string // captured at construction: Name must not race with rewind
	mu      sync.Mutex
	factory func() (Scheduler, error) // nil: forward-only cursor
	s       Scheduler
	cursor  int64   // last holiday produced by s.Next
	memo    [][]int // ring: holiday t at memo[t%memoCap], valid for cursor-memoCap < t ≤ cursor
	memoCap int64
}

// DefaultReplayMemo is the number of recent holidays a replay Schedule keeps
// cached for backward queries that do not warrant a full re-simulation.
const DefaultReplayMemo = 1024

// NewReplaySchedule wraps a stateful scheduler as a Schedule. s must be
// fresh (no Next calls yet). factory reconstructs an identical fresh
// scheduler — it is invoked when a query seeks before the memo window and
// must be deterministic (same graph, algorithm, and seed) for the replay to
// reproduce the original sequence. A nil factory yields a forward-only
// cursor: queries that would rewind past the memo panic.
func NewReplaySchedule(s Scheduler, factory func() (Scheduler, error)) Schedule {
	return &replaySchedule{
		name:    s.Name(),
		factory: factory,
		s:       s,
		memo:    make([][]int, DefaultReplayMemo),
		memoCap: DefaultReplayMemo,
	}
}

// Name implements Schedule.
func (rs *replaySchedule) Name() string { return rs.name }

// RandomAccess implements Schedule: a replay cursor pays for every holiday
// between its position and the query.
func (rs *replaySchedule) RandomAccess() bool { return false }

// advance steps the underlying scheduler one holiday, memoizing the result,
// and returns the memo slot (valid until the slot is overwritten).
func (rs *replaySchedule) advance() []int {
	happy := rs.s.Next()
	rs.cursor++
	slot := rs.cursor % rs.memoCap
	rs.memo[slot] = append(rs.memo[slot][:0], happy...)
	return rs.memo[slot]
}

// rewind discards the cursor and restarts from a fresh scheduler.
func (rs *replaySchedule) rewind() {
	if rs.factory == nil {
		panic(fmt.Sprintf("core: schedule %q cannot seek before holiday %d: built without a factory (use NewReplaySchedule with one for full random access)",
			rs.s.Name(), rs.cursor-rs.memoCap+1))
	}
	s, err := rs.factory()
	if err != nil {
		panic(fmt.Sprintf("core: schedule %q factory failed on rewind: %v", rs.s.Name(), err))
	}
	rs.s = s
	rs.cursor = 0
}

// happyAt returns the happy set at t without copying, seeking as needed.
// Caller holds rs.mu; the slice is valid until the next advance overwrites
// its ring slot.
func (rs *replaySchedule) happyAt(t int64) []int {
	if t <= rs.cursor-rs.memoCap {
		rs.rewind()
	}
	if t <= rs.cursor {
		return rs.memo[t%rs.memoCap]
	}
	for rs.cursor < t-1 {
		rs.advance()
	}
	return rs.advance()
}

// HappySet implements Schedule.
func (rs *replaySchedule) HappySet(t int64) []int {
	if t < 1 || t > MaxHoliday {
		return nil
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]int(nil), rs.happyAt(t)...)
}

// Window implements Schedule: memoized holidays are served from the ring,
// the remainder by advancing the cursor.
func (rs *replaySchedule) Window(from, to int64, visit func(t int64, happy []int)) {
	if to > MaxHoliday {
		to = MaxHoliday
	}
	if from < 1 || to < from {
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for t := from; t <= to; t++ {
		visit(t, rs.happyAt(t))
	}
}

// NextHappy implements Schedule: scan forward from max(from, 1) until v
// appears, giving up (returning 0) after MaxNextHappyScan holidays.
func (rs *replaySchedule) NextHappy(v int, from int64) int64 {
	if from > MaxHoliday {
		return 0
	}
	if from < 1 {
		from = 1
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for t := from; t < from+MaxNextHappyScan; t++ {
		for _, u := range rs.happyAt(t) {
			if u == v {
				return t
			}
		}
	}
	return 0
}

// ScheduleOf adapts a scheduler to the Schedule interface over n nodes.
// Perfectly periodic schedulers become immutable closed-form schedules
// (RandomAccess true, s never advanced); anything else becomes a
// forward-only replay cursor around s itself — sufficient for a single
// in-order sweep such as analysis, but seeks before the memo window panic.
// Use NewReplaySchedule with a factory when full random access over a
// stateful scheduler is needed.
func ScheduleOf(s Scheduler, n int) Schedule {
	if p, ok := s.(Periodic); ok {
		return NewPeriodicSchedule(p, n)
	}
	return NewReplaySchedule(s, nil)
}
