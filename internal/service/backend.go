package service

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/poly"
)

// Community kinds. A kind names the scheduling problem a community solves
// and the backend that maintains it under churn.
const (
	// KindClassic is the paper's Family Holiday Gathering problem: entities
	// are families, edges are in-law conflicts, and each holiday's happy set
	// is an independent set maintained by the §6 dynamic color-bound
	// scheduler. The empty kind means classic.
	KindClassic = "classic"
	// KindPoly is the Polyamorous Scheduling problem: demands sit on the
	// edges, each timeslot's output is a matching, and the schedule entities
	// are edge slots rather than families.
	KindPoly = "poly"
)

// backend is the per-kind scheduler a Community drives: the classic dynamic
// color-bound recolorer or the poly edge-layering scheduler. Both expose
// the same churn vocabulary (core.Edit/EditResult) and freeze to a
// core.Schedule, which is what lets the locking, journaling, caching, and
// both wire protocols above stay kind-agnostic. Callers hold the
// community's write lock for every mutating call and validate edits
// (validEdge) before applying them.
type backend interface {
	Kind() string
	// SchedulerName names the algorithm for stats and frozen schedules.
	SchedulerName() string
	// CodeName is the code the kind was created with: a prefix code name
	// for classic, a poly scheduler code for poly.
	CodeName() string
	N() int
	M() int
	// Repairs counts the kind's disruption events: recolorings for classic,
	// full relayerings for poly.
	Repairs() int64
	AddNode() int
	HasEdge(u, v int) bool
	// ApplyBatch applies validated edits in order, filling out (same length)
	// with per-edit outcomes, byte-identical to one-at-a-time application.
	// Insert demands are resolved per kind (classic ignores them, poly
	// substitutes the community default for 0). The returned count is the
	// batch's Repairs delta. Every marriage and divorce — single ops, batches
	// and WAL replay — goes through it.
	ApplyBatch(edits []core.Edit, out []core.EditResult) (repairs int, err error)
	// Invalidates reports whether an edit's outcome requires dropping the
	// cached frozen schedule (and ticking the community version). Classic
	// schedules only change when somebody recolors; poly schedules include
	// the edge slots themselves, so every applied edit changes them.
	Invalidates(res core.EditResult) bool
	// FrozenSchedule snapshots the current assignment as the closed-form
	// schedule the community caches between invalidations.
	FrozenSchedule() (*core.PeriodicSchedule, error)
	// exportInto fills the kind-specific fields of a snapshot.
	exportInto(st *CommunityState)
}

// classicBackend adapts core.DynamicColorBound to the backend surface.
type classicBackend struct {
	dyn *core.DynamicColorBound
}

func (b *classicBackend) Kind() string          { return KindClassic }
func (b *classicBackend) SchedulerName() string { return b.dyn.Name() }
func (b *classicBackend) CodeName() string      { return b.dyn.Code().Name() }
func (b *classicBackend) N() int                { return b.dyn.N() }
func (b *classicBackend) M() int                { return b.dyn.M() }
func (b *classicBackend) Repairs() int64        { return b.dyn.Recolorings }
func (b *classicBackend) AddNode() int          { return b.dyn.AddNode() }
func (b *classicBackend) HasEdge(u, v int) bool { return b.dyn.HasEdge(u, v) }

func (b *classicBackend) ApplyBatch(edits []core.Edit, out []core.EditResult) (int, error) {
	return b.dyn.ApplyBatchResults(edits, out)
}

func (b *classicBackend) Invalidates(res core.EditResult) bool { return res.Recolored }

func (b *classicBackend) FrozenSchedule() (*core.PeriodicSchedule, error) {
	return b.dyn.FrozenSchedule()
}

func (b *classicBackend) exportInto(st *CommunityState) {
	g := b.dyn.Graph()
	st.Families = g.N()
	st.Edges = edgeList(g)
	st.Code = b.dyn.Code().Name()
	st.Coloring = b.dyn.Coloring()
	st.Recolorings = b.dyn.Recolorings
}

// polyBackend adapts poly.Dyn. defaultDemand is the community-level demand
// substituted for edits that do not name one; it is fixed at creation and
// persisted, so WAL replay resolves demands identically.
type polyBackend struct {
	dyn           *poly.Dyn
	defaultDemand int64
}

func (b *polyBackend) Kind() string          { return KindPoly }
func (b *polyBackend) SchedulerName() string { return b.dyn.Name() }
func (b *polyBackend) CodeName() string      { return b.dyn.Code() }
func (b *polyBackend) N() int                { return b.dyn.N() }
func (b *polyBackend) M() int                { return b.dyn.M() }
func (b *polyBackend) Repairs() int64        { return b.dyn.Relayerings() }
func (b *polyBackend) AddNode() int          { return b.dyn.AddNode() }
func (b *polyBackend) HasEdge(u, v int) bool { return b.dyn.HasEdge(u, v) }

// demand resolves an edit's demand: 0 (and anything non-positive) takes the
// community default; anything else is clamped by the poly core.
func (b *polyBackend) demand(d int64) int64 {
	if d <= 0 {
		return b.defaultDemand
	}
	return poly.ClampDemand(d)
}

func (b *polyBackend) ApplyBatch(edits []core.Edit, out []core.EditResult) (int, error) {
	before := b.dyn.Relayerings()
	for i, e := range edits {
		switch e.Op {
		case core.EditInsert:
			applied, relayered := b.dyn.AddEdge(e.U, e.V, b.demand(e.Demand))
			out[i] = core.EditResult{Applied: applied, Recolored: relayered}
		case core.EditDelete:
			out[i] = core.EditResult{Applied: b.dyn.RemoveEdge(e.U, e.V)}
		default:
			// Unreachable: the caller validated ops. Surface, don't swallow.
			return int(b.dyn.Relayerings() - before), fmt.Errorf("poly: batch edit %d has unknown op %d", i, e.Op)
		}
	}
	return int(b.dyn.Relayerings() - before), nil
}

// Invalidates: a poly schedule's entities are the edge slots, so any edit
// that changed the edge set changed the schedule — unlike classic, where an
// insert between differently colored families leaves every answer valid.
func (b *polyBackend) Invalidates(res core.EditResult) bool { return res.Applied }

func (b *polyBackend) FrozenSchedule() (*core.PeriodicSchedule, error) { return b.dyn.FrozenSchedule() }

func (b *polyBackend) exportInto(st *CommunityState) {
	st.Kind = KindPoly
	st.Families = b.dyn.N()
	st.Code = b.dyn.Code()
	st.DefaultDemand = b.defaultDemand
	ps := b.dyn.Export()
	st.Poly = &ps
}

// PolyStats returns the poly-specific instance summary (density, max gap
// ratio, fairness) and whether the community is of the poly kind.
func (c *Community) PolyStats() (poly.Stats, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if pb, ok := c.be.(*polyBackend); ok {
		return pb.dyn.Stats(), true
	}
	return poly.Stats{}, false
}

// Kind returns the community's kind (KindClassic or KindPoly).
func (c *Community) Kind() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.be.Kind()
}
