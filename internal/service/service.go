// Package service is the concurrent multi-community serving layer: a
// registry of independently evolving communities, each scheduled by the §6
// dynamic color-bound scheduler, answering random-access schedule queries
// (windows of holidays, a family's next happy holiday) from a cached
// frozen core.Schedule.
//
// The cache exploits the paper's headline property: the schedule is
// perfectly periodic, so a snapshot of the current coloring answers any
// window in closed form with no per-query scheduling work. Edge churn
// (marriages and divorces) routes through core.DynamicColorBound; the
// cached schedule is invalidated only when churn actually recolors a
// family or changes the family set — an insertion between differently
// colored families leaves every answer valid and keeps serving from cache.
//
// All types are safe for concurrent use: the registry and each community
// take RW locks, reads serve concurrently, and the frozen schedules handed
// out are immutable values, so in-flight queries keep a consistent snapshot
// even while churn rebuilds the cache underneath them.
package service

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/poly"
	"repro/internal/prefixcode"
)

// MaxWindow bounds the holidays a single Window query may span, keeping
// per-request work and response size proportional to one page.
const MaxWindow = 4096

// Owner is the per-community ownership surface: the concurrent store of
// communities this node is authoritative for, plus any replicas it follows.
// Attach a Journal (Opts.Journal or SetJournal) to make it durable: every
// mutation is then logged write-ahead, and internal/persist can snapshot
// and replay the store across restarts. Placement — which node should own
// which community — is the Router's job; an Owner only enforces its side of
// the split by fencing communities it merely replicates (see Fence).
type Owner struct {
	mu          sync.RWMutex
	communities map[string]*Community
	// journal is read on every mutation with a single atomic load, so the
	// no-durability configuration pays nothing and attaching never races
	// in-flight churn.
	journal atomic.Pointer[journalBox]
}

// Registry is the pre-cluster name of Owner. It stays only because the
// repo benchmark (holidaybench/main.go, a nested module that changes only
// with the benchmark itself) names it; everything else says Owner.
type Registry = Owner

// Opts configures New. The zero value is a valid standalone configuration.
type Opts struct {
	// Journal, when non-nil, is attached before the owner serves anything,
	// so no mutation can slip in unlogged between construction and a later
	// SetJournal. Recovery paths (Restore, Apply) never log, so attaching
	// at construction is safe even when a replay follows.
	Journal Journal
}

// New returns an empty owner configured by opts.
func New(opts Opts) *Owner {
	o := &Owner{communities: make(map[string]*Community)}
	if opts.Journal != nil {
		o.SetJournal(opts.Journal)
	}
	return o
}

// Create registers a new classic community of n families with the given
// initial marriages, scheduled by the dynamic color-bound scheduler over the
// named prefix code ("" means omega, the paper's choice). Errors on duplicate
// ids, unknown codes, and invalid edges.
func (r *Owner) Create(id string, n int, edges [][2]int, codeName string) (*Community, error) {
	return r.CreateSpec(CreateSpec{ID: id, Families: n, Edges: edges, Code: codeName})
}

// CreateSpec is the kind-dispatching create request: everything POST
// /v1/communities accepts. The zero Kind means KindClassic, keeping every
// pre-poly caller and record byte-compatible.
type CreateSpec struct {
	ID       string
	Families int
	Edges    [][2]int
	// Code selects the scheduler within the kind: a prefix code name for
	// classic ("" = omega), a poly scheduler code for poly ("" = layering).
	Code string
	Kind string
	// Demands are per-edge demands for poly creates, aligned with Edges;
	// nil (or a 0 entry) takes DefaultDemand. Classic creates must leave
	// them empty.
	Demands []int64
	// DefaultDemand is the demand substituted for poly edits that do not
	// name one; 0 means poly.DefaultDemand. Fixed at creation.
	DefaultDemand int64
}

// CreateSpec registers a new community of the requested kind. With a
// journal attached, the creation is logged before the community becomes
// visible; a journal failure registers nothing. Unknown kinds are rejected
// with the bad_request envelope — the error a client can branch on across
// both transports.
func (r *Owner) CreateSpec(spec CreateSpec) (*Community, error) {
	c, rec, err := r.build(spec, nil)
	if err != nil {
		return nil, err
	}
	return r.register(c, &rec)
}

// CreateFromGraph registers a new classic community over an existing
// conflict graph, avoiding the edge-list round trip of Create. The graph is
// not retained; the community evolves its own dynamic copy.
func (r *Owner) CreateFromGraph(id string, g *graph.Graph, codeName string) (*Community, error) {
	c, rec, err := r.build(CreateSpec{ID: id, Families: g.N(), Code: codeName}, g)
	if err != nil {
		return nil, err
	}
	return r.register(c, &rec)
}

// build constructs the community spec describes, unregistered, and the
// create record that journals it: the resolved code and, for poly, the
// resolved demands, so replay reconstructs it byte-identically. g, when
// non-nil, is the classic conflict graph already built from spec.
func (r *Owner) build(spec CreateSpec, g *graph.Graph) (*Community, Record, error) {
	if spec.ID == "" {
		return nil, Record{}, fmt.Errorf("service: empty community id")
	}
	if spec.Families < 1 {
		return nil, Record{}, fmt.Errorf("service: community %q needs at least one family, got %d", spec.ID, spec.Families)
	}
	fail := func(err error) (*Community, Record, error) {
		return nil, Record{}, fmt.Errorf("service: community %q: %w", spec.ID, err)
	}
	rec := Record{Op: OpCreate, ID: spec.ID, N: spec.Families}
	var be backend
	switch spec.Kind {
	case "", KindClassic:
		if len(spec.Demands) > 0 {
			return nil, Record{}, Errf(CodeBadRequest, "community %q: classic communities take no edge demands", spec.ID)
		}
		if spec.DefaultDemand != 0 {
			return nil, Record{}, Errf(CodeBadRequest, "community %q: classic communities take no default demand", spec.ID)
		}
		var err error
		if g == nil {
			if g, err = edgeGraph(spec.Families, spec.Edges); err != nil {
				return fail(err)
			}
		}
		code, err := codeByName(spec.Code)
		if err != nil {
			return fail(err)
		}
		dyn, err := core.NewDynamicColorBound(g, code)
		if err != nil {
			return fail(err)
		}
		be = &classicBackend{dyn: dyn}
		rec.Edges, rec.Code = edgeList(g), code.Name()
	case KindPoly:
		if len(spec.Demands) != 0 && len(spec.Demands) != len(spec.Edges) {
			return nil, Record{}, Errf(CodeBadRequest, "community %q: %d demands for %d edges",
				spec.ID, len(spec.Demands), len(spec.Edges))
		}
		dyn, err := poly.New(spec.Families, spec.Code)
		if err != nil {
			return fail(err)
		}
		pb := &polyBackend{dyn: dyn, defaultDemand: poly.ClampDemand(spec.DefaultDemand)}
		demands := make([]int64, len(spec.Edges))
		for i, e := range spec.Edges {
			if err := validEdge(spec.Families, e[0], e[1]); err != nil {
				return fail(err)
			}
			if dyn.HasEdge(e[0], e[1]) {
				return fail(fmt.Errorf("duplicate edge (%d,%d)", e[0], e[1]))
			}
			var d int64
			if i < len(spec.Demands) {
				d = spec.Demands[i]
			}
			demands[i] = pb.demand(d)
			dyn.AddEdge(e[0], e[1], demands[i])
		}
		be = pb
		rec.Edges, rec.Code, rec.Kind, rec.Demands, rec.DefaultDemand = spec.Edges, dyn.Code(), KindPoly, demands, pb.defaultDemand
	default:
		return nil, Record{}, Errf(CodeBadRequest, "community %q: unknown kind %q (want %q or %q)",
			spec.ID, spec.Kind, KindClassic, KindPoly)
	}
	return &Community{id: spec.ID, reg: r, be: be}, rec, nil
}

// register inserts c, rejecting duplicate ids. With rec non-nil and a
// journal attached, rec is logged first and a journal failure registers
// nothing; recovery (Restore, Apply) passes nil.
//
// Logging inside r.mu is load-bearing, not incidental: the snapshot
// cut-point argument (persist.Store.SaveSnapshot) relies on a create's
// sequence assignment and map insertion being one critical section. Under
// SyncAlways that puts an fsync under the registry lock, but creates and
// deletes are rare next to churn, which only holds c.mu.
func (r *Owner) register(c *Community, rec *Record) (*Community, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.communities[c.id]; dup {
		return nil, fmt.Errorf("service: community %q already exists", c.id)
	}
	if j := r.getJournal(); j != nil && rec != nil {
		seq, err := j.Log(*rec)
		if err != nil {
			return nil, fmt.Errorf("service: community %q: journal: %w", c.id, err)
		}
		c.seq = seq
	}
	r.communities[c.id] = c
	return c, nil
}

// edgeGraph builds the conflict graph of n families from an edge list,
// rejecting out-of-range, self and duplicate edges.
func edgeGraph(n int, edges [][2]int) (*graph.Graph, error) {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		if err := validEdge(n, e[0], e[1]); err != nil {
			return nil, err
		}
		if err := b.AddEdgeErr(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return b.Graph(), nil
}

// edgeList is the inverse of edgeGraph: g's edges in its canonical order.
func edgeList(g *graph.Graph) [][2]int {
	edges := make([][2]int, 0, g.M())
	for _, e := range g.Edges() {
		edges = append(edges, [2]int{e.U, e.V})
	}
	return edges
}

// codeByName resolves a classic community's prefix code; "" means omega,
// the paper's choice.
func codeByName(name string) (prefixcode.Code, error) {
	if name == "" {
		name = "omega"
	}
	return prefixcode.ByName(name)
}

// Get returns the community with the given id, if registered.
func (r *Owner) Get(id string) (*Community, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.communities[id]
	return c, ok
}

// Fence marks a community as followed rather than owned: direct writes are
// rejected with CodeNotOwner from the next acquisition of its lock, while
// reads and replication (Apply) continue. Reports whether the community
// exists. The cluster layer fences every community a follower replicates,
// so churn misrouted during a topology change fails closed instead of
// silently double-applying.
func (r *Owner) Fence(id string) bool { return r.setFenced(id, true) }

// Unfence lifts a fence — the promotion path when this node takes
// ownership. Reports whether the community exists.
func (r *Owner) Unfence(id string) bool { return r.setFenced(id, false) }

// TakeOwnership promotes a replica this node follows into a locally owned
// community: it lifts the fence and rebases the community's sequence into
// the local journal's space. A replica's seq is a position in its old
// owner's journal; left in place it can exceed every sequence the local
// journal will ever assign, so post-promotion writes would be skipped on
// WAL replay (seq <= cut-point) and silently lost across a restart.
// Already-owned communities are left untouched. Reports whether the
// community exists.
func (r *Owner) TakeOwnership(id string) bool {
	c, ok := r.Get(id)
	if !ok {
		return false
	}
	var base uint64
	if j := r.getJournal(); j != nil {
		if s, ok := j.(interface{ Seq() uint64 }); ok {
			base = s.Seq()
		}
	}
	c.mu.Lock()
	if c.fenced {
		c.fenced = false
		c.seq = base
	}
	c.mu.Unlock()
	return true
}

func (r *Owner) setFenced(id string, fenced bool) bool {
	c, ok := r.Get(id)
	if !ok {
		return false
	}
	c.mu.Lock()
	c.fenced = fenced
	c.mu.Unlock()
	return true
}

// Delete unregisters a community, reporting whether it existed. With a
// journal attached the deletion is logged first; a journal failure leaves
// the community registered and returns the error.
func (r *Owner) Delete(id string) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.communities[id]
	if !ok {
		return false, nil
	}
	// A fenced community is deleted by its owner's replicated delete record,
	// never directly: lock order r.mu → c.mu matches Apply's delete path.
	if c.Fenced() {
		return false, Errf(CodeNotOwner, "community %q is a replica on this node; its owner takes deletes", id)
	}
	if j := r.getJournal(); j != nil {
		if _, err := j.Log(Record{Op: OpDelete, ID: id}); err != nil {
			return false, fmt.Errorf("service: delete %q: journal: %w", id, err)
		}
	}
	delete(r.communities, id)
	return true, nil
}

// List returns the registered community ids, sorted.
func (r *Owner) List() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]string, 0, len(r.communities))
	for id := range r.communities {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// validEdge checks an edge against the community size.
func validEdge(n, u, v int) error {
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("edge (%d,%d) outside families [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("self-marriage at family %d", u)
	}
	return nil
}

// Community is one conflict graph under churn plus its cached frozen
// schedule. Queries (Window, NextHappy, Schedule) serve concurrently under
// a read lock; churn takes the write lock and invalidates the cache only
// when the periodic assignment actually changed.
type Community struct {
	id  string
	reg *Owner // for the journal; nil only in zero values

	mu sync.RWMutex
	// be is the kind-specific scheduler (classic color-bound or poly
	// edge-layering); everything above it is kind-agnostic.
	be     backend
	cached core.Schedule // nil when invalidated; rebuilt lazily
	// version counts cache invalidations (recolorings or family-set
	// changes) — a cheap staleness signal for clients.
	version int64
	// seq is the journal sequence of the last record logged for (or
	// replayed into) this community; snapshots export it as the replay
	// cut-point. Guarded by mu like the state it versions.
	seq uint64
	// fenced marks a community this node merely replicates: direct writes
	// are rejected with CodeNotOwner while replication (Apply) still lands.
	// Guarded by mu so an ownership change cannot interleave with a write.
	fenced bool
	// one and oneRes are the scratch batch of single-edit churn and replay,
	// used under mu, so a single op allocates nothing.
	one    [1]core.Edit
	oneRes [1]core.EditResult

	hits   atomic.Int64 // queries answered from the cached schedule
	misses atomic.Int64 // queries that had to freeze a new schedule
}

// ID returns the community's registry id.
func (c *Community) ID() string { return c.id }

// Seq returns the journal sequence of the last record logged for (or
// replayed into) this community — the read-your-writes token of the
// cluster API and the basis of follower lag.
func (c *Community) Seq() uint64 { return c.journalSeq() }

// Fenced reports whether direct writes are fenced off (this node follows
// the community rather than owning it).
func (c *Community) Fenced() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.fenced
}

// fencedErrLocked rejects writes on fenced communities; caller holds c.mu.
// Replication bypasses it by design: Apply edits the state directly at
// explicit sequence numbers and never calls the write methods.
func (c *Community) fencedErrLocked() error {
	if !c.fenced {
		return nil
	}
	return Errf(CodeNotOwner, "community %q is a replica on this node; its owner takes writes", c.id)
}

// Stats is a point-in-time summary of a community.
type Stats struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Families int    `json:"families"`
	// Marriages counts edges: in-law conflicts for classic, scheduled
	// relationships for poly.
	Marriages int    `json:"marriages"`
	Scheduler string `json:"scheduler"`
	Version   int64  `json:"version"`
	// Recolorings counts repair events: §6 recolorings for classic, full
	// relayering rebuilds for poly.
	Recolorings int64 `json:"recolorings"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Poly carries the poly-kind instance summary (density, max gap ratio,
	// fairness); nil for classic communities.
	Poly *poly.Stats `json:"poly,omitempty"`
}

// Stats snapshots the community's counters.
func (c *Community) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := Stats{
		ID:          c.id,
		Kind:        c.be.Kind(),
		Families:    c.be.N(),
		Marriages:   c.be.M(),
		Scheduler:   c.be.SchedulerName(),
		Version:     c.version,
		Recolorings: c.be.Repairs(),
		CacheHits:   c.hits.Load(),
		CacheMisses: c.misses.Load(),
	}
	if pb, ok := c.be.(*polyBackend); ok {
		ps := pb.dyn.Stats()
		st.Poly = &ps
	}
	return st
}

// Families returns the current number of families.
func (c *Community) Families() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.be.N()
}

// AddFamily appends a new isolated family and returns its id. The schedule
// gains a node, so the cache is invalidated. With a journal attached the
// record is logged first; on journal failure nothing is applied.
func (c *Community) AddFamily() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.fencedErrLocked(); err != nil {
		return 0, err
	}
	if err := c.logLocked([]Record{{Op: OpAddFamily, ID: c.id}}); err != nil {
		return 0, err
	}
	id := c.be.AddNode()
	c.invalidateLocked()
	return id, nil
}

// Marry inserts an edge, routed through the kind's repair rule (§6 dynamic
// recoloring for classic, incremental layering for poly). It is a one-edit
// ChurnBatch: the cached schedule survives unless the backend says the
// insertion changed it, the record is journaled write-ahead after
// validation, and re-marrying a married couple is an unjournaled no-op.
func (c *Community) Marry(u, v int) (recolored bool, err error) {
	return c.MarryDemand(u, v, 0)
}

// MarryDemand is Marry with an explicit per-edge demand for poly
// communities (0 means the community default; classic ignores it).
func (c *Community) MarryDemand(u, v int, demand int64) (recolored bool, err error) {
	res, err := c.churnOne(core.Edit{Op: core.EditInsert, U: u, V: v, Demand: demand})
	return res.Recolored, err
}

// Divorce removes an edge (the kind's deletion path) as a one-edit
// ChurnBatch, reporting whether the edge existed and whether a repair
// (recoloring/relayering) ran. Divorcing strangers is an unjournaled no-op.
func (c *Community) Divorce(u, v int) (removed, recolored bool, err error) {
	res, err := c.churnOne(core.Edit{Op: core.EditDelete, U: u, V: v})
	return res.Applied, res.Recolored, err
}

// journal returns the journal attached to the community's owner, or nil.
func (c *Community) journal() Journal {
	if c.reg == nil {
		return nil
	}
	return c.reg.getJournal()
}

// logLocked write-ahead logs this community's mutation records, in one
// append when the journal supports it, and advances the community's
// sequence to the last record's. Caller holds c.mu. Without a journal, or
// with no records, it is a no-op.
func (c *Community) logLocked(recs []Record) error {
	j := c.journal()
	if j == nil || len(recs) == 0 {
		return nil
	}
	if bj, ok := j.(BatchJournal); ok {
		seq, err := bj.LogBatch(recs)
		if err != nil {
			return fmt.Errorf("service: community %q: journal: %w", c.id, err)
		}
		c.seq = seq
		return nil
	}
	for _, rec := range recs {
		seq, err := j.Log(rec)
		if err != nil {
			return fmt.Errorf("service: community %q: journal: %w", c.id, err)
		}
		c.seq = seq
	}
	return nil
}

// invalidateLocked drops the cached schedule; the caller holds c.mu.
func (c *Community) invalidateLocked() {
	c.cached = nil
	c.version++
}

// Schedule returns the community's frozen periodic schedule, rebuilding it
// only when churn invalidated the cache. The returned Schedule is an
// immutable value: callers may query it without locks, and it stays
// consistent even if the community recolors afterwards.
func (c *Community) Schedule() (core.Schedule, error) {
	c.mu.RLock()
	if s := c.cached; s != nil {
		c.mu.RUnlock()
		c.hits.Add(1)
		return s, nil
	}
	c.mu.RUnlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cached != nil { // another writer rebuilt while we waited
		c.hits.Add(1)
		return c.cached, nil
	}
	s, err := c.be.FrozenSchedule()
	if err != nil {
		return nil, fmt.Errorf("service: community %q: %w", c.id, err)
	}
	c.cached = s
	c.misses.Add(1)
	return s, nil
}

// HolidayRow is one holiday of a window response.
type HolidayRow struct {
	Holiday int64 `json:"holiday"`
	Happy   []int `json:"happy"`
}

// Window answers a closed-form window query [from, to] from the cached
// schedule. from must be ≥ 1, to ≥ from, and the span at most MaxWindow.
func (c *Community) Window(from, to int64) ([]HolidayRow, error) {
	return c.AppendWindow(nil, from, to)
}

// AppendWindow answers the same query as Window but appends into rows,
// reusing both its capacity and the Happy backing array of every row slot it
// overwrites. Callers that serve windows in a loop (the HTTP handler, the
// load generator) hand back the previous response's rows and steady-state
// queries allocate nothing. Rows beyond the returned length keep their
// buffers for the next reuse.
func (c *Community) AppendWindow(rows []HolidayRow, from, to int64) ([]HolidayRow, error) {
	if from < 1 {
		return rows, fmt.Errorf("service: window start %d < 1", from)
	}
	if to > core.MaxHoliday {
		return rows, fmt.Errorf("service: window end %d beyond last servable holiday %d", to, core.MaxHoliday)
	}
	if to < from {
		return rows, fmt.Errorf("service: window [%d,%d] is empty", from, to)
	}
	if span := to - from + 1; span > MaxWindow {
		return rows, fmt.Errorf("service: window spans %d holidays, max %d", span, MaxWindow)
	}
	sched, err := c.Schedule()
	if err != nil {
		return rows, err
	}
	sched.Window(from, to, func(t int64, happy []int) {
		n := len(rows)
		if cap(rows) > n {
			rows = rows[:n+1] // revive the spare slot, Happy buffer included
		} else {
			rows = append(rows, HolidayRow{})
		}
		r := &rows[n]
		r.Holiday = t
		r.Happy = append(r.Happy[:0], happy...)
		if r.Happy == nil {
			// A fresh slot on an empty holiday must still marshal "happy":[],
			// never null — the wire format does not depend on slot reuse.
			r.Happy = emptyHappy
		}
	})
	return rows, nil
}

// emptyHappy is the shared zero-length happy set of holidays nobody hosts;
// its zero capacity means a later reuse appends into a fresh buffer.
var emptyHappy = make([]int, 0)

// WindowBits answers the same window query as AppendWindow but as
// word-packed happy bitmaps — the binary wire representation. begin is
// called exactly once with the family count n (fixing the ⌈n/64⌉ row width)
// before the first row; visit then runs once per holiday in order with the
// packed row, which is only valid for the duration of the callback. The
// closed-form periodic snapshot emits rows directly (core.BitWindower), so
// no []int row is ever materialized on this path. On error neither callback
// has been invoked, so a partially emitted response cannot exist.
func (c *Community) WindowBits(from, to int64, begin func(n int), visit func(t int64, row graph.Bitset)) error {
	if from < 1 {
		return fmt.Errorf("service: window start %d < 1", from)
	}
	if to > core.MaxHoliday {
		return fmt.Errorf("service: window end %d beyond last servable holiday %d", to, core.MaxHoliday)
	}
	if to < from {
		return fmt.Errorf("service: window [%d,%d] is empty", from, to)
	}
	if span := to - from + 1; span > MaxWindow {
		return fmt.Errorf("service: window spans %d holidays, max %d", span, MaxWindow)
	}
	sched, err := c.Schedule()
	if err != nil {
		return err
	}
	n := 0
	if nc, ok := sched.(core.NodeCounter); ok {
		n = nc.Nodes()
	} else {
		n = c.Families()
	}
	begin(n)
	core.WindowBits(sched, n, from, to, visit)
	return nil
}

// NextHappy answers a family's next happy holiday at or after from
// (from < 1 is clamped to 1) from the cached schedule. The family id is
// bounds-checked against the frozen snapshot itself, so a cache hit costs a
// single lock acquisition rather than one for the family count and one for
// the schedule.
func (c *Community) NextHappy(v int, from int64) (int64, error) {
	if from > core.MaxHoliday {
		return 0, fmt.Errorf("service: holiday %d beyond last servable holiday %d", from, core.MaxHoliday)
	}
	sched, err := c.Schedule()
	if err != nil {
		return 0, err
	}
	n := 0
	if nc, ok := sched.(core.NodeCounter); ok {
		n = nc.Nodes()
	} else {
		n = c.Families()
	}
	if v < 0 || v >= n {
		return 0, fmt.Errorf("service: community %q has no family %d", c.id, v)
	}
	return sched.NextHappy(v, from), nil
}
