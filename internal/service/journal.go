package service

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/poly"
)

// Op names one kind of state-changing operation in a journal record. The
// five ops are exactly the registry's mutation surface: everything else
// (window/next queries, stats) is derivable from them.
type Op string

const (
	// OpCreate registers a community (Families, Edges, Code).
	OpCreate Op = "create"
	// OpDelete unregisters a community.
	OpDelete Op = "delete"
	// OpAddFamily appends one isolated family to a community.
	OpAddFamily Op = "add_family"
	// OpMarry inserts the in-law edge (U, V).
	OpMarry Op = "marry"
	// OpDivorce removes the in-law edge (U, V).
	OpDivorce Op = "divorce"
)

// Record is one journaled mutation. Only the fields relevant to the op are
// set: Families/Edges/Code for OpCreate, U/V for OpMarry and OpDivorce.
// The poly-kind fields (Kind, Demands, DefaultDemand, Demand) are all
// omitempty and zero for classic communities, so classic WAL bytes are
// unchanged from every earlier schema.
type Record struct {
	Op    Op       `json:"op"`
	ID    string   `json:"id"`
	N     int      `json:"families,omitempty"`
	Edges [][2]int `json:"edges,omitempty"`
	Code  string   `json:"code,omitempty"`
	U     int      `json:"u"`
	V     int      `json:"v"`
	// Kind marks a poly-kind create; empty means classic.
	Kind string `json:"kind,omitempty"`
	// Demands are the resolved per-edge demands of a poly create, aligned
	// with Edges.
	Demands []int64 `json:"demands,omitempty"`
	// DefaultDemand is the poly community's resolved default demand,
	// stamped on the create so replay resolves demand-less edits
	// identically.
	DefaultDemand int64 `json:"default_demand,omitempty"`
	// Demand is the per-edge demand of a poly marry; 0 means the community
	// default.
	Demand int64 `json:"demand,omitempty"`
}

// Journal is the durability hook of the registry. When attached (see
// Owner.SetJournal), every mutation is logged — and must be accepted by
// the journal — before it is applied and acknowledged, write-ahead style.
// Log returns a sequence number that totally orders records; the registry
// remembers, per community, the sequence of the last record applied to it,
// which is how snapshot-plus-replay recovery (internal/persist) skips
// records already reflected in a snapshot.
//
// Implementations must be safe for concurrent Log calls: churn on distinct
// communities logs concurrently.
type Journal interface {
	Log(rec Record) (seq uint64, err error)
}

// BatchJournal is the optional fast path for batched churn: journals that
// implement it absorb a whole ChurnBatch flush as one append — consecutive
// sequences, one write, one group-commit round — returning the sequence of
// the last record. Journals that don't are fed record-by-record; semantics
// (and the on-disk format, for internal/persist) are identical either way.
type BatchJournal interface {
	Journal
	LogBatch(recs []Record) (last uint64, err error)
}

// SetJournal attaches (or, with nil, detaches) the owner's journal.
// Attach before accepting traffic: ops applied while no journal is attached
// are not logged and will not survive a restart. Restore and Apply never
// log — recovery replays through them without re-journaling. Opts.Journal
// covers owners that journal from birth; SetJournal is for late attach
// (persist.Store.Load replays a WAL into a bare owner and then attaches the
// same WAL, and a cluster node wraps it in a replication source).
func (r *Owner) SetJournal(j Journal) {
	r.journal.Store(&journalBox{j: j})
}

// journalBox wraps the interface so an atomic.Pointer can hold a nil
// journal distinctly from "never set".
type journalBox struct{ j Journal }

// getJournal returns the attached journal, or nil.
func (r *Owner) getJournal() Journal {
	if b := r.journal.Load(); b != nil {
		return b.j
	}
	return nil
}

// CommunityState is the full persistent state of one community: everything
// needed to reconstruct it answering byte-identically. Coloring is carried
// verbatim (not re-derived) because the greedy recoloring path is
// history-dependent; Seq is the journal sequence of the last record applied,
// the replay cut-point for recovery.
type CommunityState struct {
	ID          string   `json:"id"`
	Families    int      `json:"families"`
	Edges       [][2]int `json:"edges"`
	Code        string   `json:"code"`
	Coloring    []int    `json:"coloring"`
	Version     int64    `json:"version"`
	Recolorings int64    `json:"recolorings"`
	Seq         uint64   `json:"seq"`
	// Kind marks a poly-kind community; empty means classic, keeping
	// classic snapshot bytes unchanged.
	Kind string `json:"kind,omitempty"`
	// DefaultDemand is the poly community's default edge demand.
	DefaultDemand int64 `json:"default_demand,omitempty"`
	// Poly is the poly instance's exact state (slots, layers, demands);
	// nil for classic communities.
	Poly *poly.State `json:"poly,omitempty"`
}

// Export snapshots the community's persistent state under its read lock,
// consistent with respect to concurrent churn: a mutation is either fully
// included (state and Seq) or fully excluded.
func (c *Community) Export() CommunityState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := CommunityState{
		ID:      c.id,
		Version: c.version,
		Seq:     c.seq,
	}
	c.be.exportInto(&st)
	return st
}

// Restore registers a community reconstructed from exported state, adopting
// its exact coloring (or poly instance), version, and journal sequence.
// Nothing is logged: restore is the recovery path, not a new mutation.
// Errors on duplicate ids, unknown kinds and codes, and states that fail
// their kind's validation (colorings that are not proper for the edge set,
// poly slots that are not matchings).
func (r *Owner) Restore(st CommunityState) (*Community, error) {
	if st.ID == "" {
		return nil, fmt.Errorf("service: restore: empty community id")
	}
	if st.Families < 1 {
		return nil, fmt.Errorf("service: restore %q: %d families", st.ID, st.Families)
	}
	fail := func(err error) (*Community, error) {
		return nil, fmt.Errorf("service: restore %q: %w", st.ID, err)
	}
	var be backend
	switch st.Kind {
	case "", KindClassic:
		code, err := codeByName(st.Code)
		if err != nil {
			return fail(err)
		}
		g, err := edgeGraph(st.Families, st.Edges)
		if err != nil {
			return fail(err)
		}
		dyn, err := core.RestoreDynamicColorBound(g, code, st.Coloring, st.Recolorings)
		if err != nil {
			return fail(err)
		}
		be = &classicBackend{dyn: dyn}
	case KindPoly:
		if st.Poly == nil {
			return fail(fmt.Errorf("poly kind with no poly state"))
		}
		if st.Poly.N != st.Families {
			return fail(fmt.Errorf("%d families but poly state has %d nodes", st.Families, st.Poly.N))
		}
		dyn, err := poly.Restore(*st.Poly)
		if err != nil {
			return fail(err)
		}
		be = &polyBackend{dyn: dyn, defaultDemand: poly.ClampDemand(st.DefaultDemand)}
	default:
		return fail(fmt.Errorf("unknown kind %q", st.Kind))
	}
	return r.register(&Community{id: st.ID, reg: r, be: be, version: st.Version, seq: st.Seq}, nil)
}

// Apply replays one journal record at its sequence number without
// re-logging it — the recovery path walking a WAL forward from a snapshot.
// Records already reflected in restored state (seq at or below the
// community's restored Seq) are skipped, so replay is idempotent: a crash
// between writing a snapshot and compacting the WAL re-replays old records
// harmlessly. Records for communities that no longer exist are skipped too
// (their delete is further down the log, or their create preceded an
// already-applied delete). Errors are reserved for genuinely inconsistent
// logs, e.g. a marry referencing a family outside the community.
func (r *Owner) Apply(seq uint64, rec Record) error {
	switch rec.Op {
	case OpCreate:
		if c, exists := r.Get(rec.ID); exists {
			if seq <= c.journalSeq() {
				return nil // already in the snapshot
			}
			return fmt.Errorf("service: replay create %q at seq %d: community already exists at seq %d", rec.ID, seq, c.journalSeq())
		}
		c, _, err := r.build(CreateSpec{
			ID: rec.ID, Families: rec.N, Edges: rec.Edges, Code: rec.Code,
			Kind: rec.Kind, Demands: rec.Demands, DefaultDemand: rec.DefaultDemand,
		}, nil)
		if err == nil {
			c.seq = seq
			_, err = r.register(c, nil)
		}
		if err != nil {
			return fmt.Errorf("service: replay seq %d: %w", seq, err)
		}
		return nil
	case OpDelete:
		r.mu.Lock()
		defer r.mu.Unlock()
		if c, ok := r.communities[rec.ID]; ok && seq > c.journalSeq() {
			delete(r.communities, rec.ID)
		}
		return nil
	case OpAddFamily, OpMarry, OpDivorce:
		c, ok := r.Get(rec.ID)
		if !ok {
			return nil
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if seq <= c.seq {
			return nil
		}
		if rec.Op == OpAddFamily {
			c.be.AddNode()
			c.invalidateLocked()
		} else {
			op := core.EditInsert
			if rec.Op == OpDivorce {
				op = core.EditDelete
			}
			c.one[0] = core.Edit{Op: op, U: rec.U, V: rec.V, Demand: rec.Demand}
			err := c.validLocked(c.one[:])
			if err == nil {
				_, err = c.applyLocked(c.one[:], c.oneRes[:])
			}
			if err != nil {
				return fmt.Errorf("service: replay %s in %q at seq %d: %w", rec.Op, rec.ID, seq, err)
			}
		}
		c.seq = seq
		return nil
	default:
		return fmt.Errorf("service: replay seq %d: unknown op %q", seq, rec.Op)
	}
}

// journalSeq reads the community's last-applied journal sequence.
func (c *Community) journalSeq() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.seq
}
