package main

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"

	"repro/internal/prefixcode"
	"repro/internal/service"
)

// auditChunk is how many holidays the final audit fetches per window call,
// which bounds its memory on the largest community.
const auditChunk = 16

// maxAuditSpan caps the audit window. Entities whose bound does not fit it
// twice are still checked for independence, but their waits are not.
const maxAuditSpan = 1 << 14

// auditor checks one community's served window against the paper's
// guarantees, computed independently from the community's exported state:
//
//   - every happy set is independent in the exported conflict graph (for
//     poly: a matching of live edges);
//   - no entity waits longer than its bound: 2^|code(color)| holidays for a
//     classic family (§4.2), its layer's period for a poly edge.
//
// Entities are families for classic communities and edge slots for poly.
type auditor struct {
	id       string
	from, to int64
	// ends holds each entity's endpoints: a poly slot's two families; for
	// classic, nil (adjacency is used instead).
	ends [][2]int
	adj  [][]int
	// bound is each entity's wait bound; 0 for vacant poly slots.
	bound []int64
	first []int64 // first happy holiday in the window, 0 if none
	last  []int64
	mark  []bool // scratch: families happy at the current holiday

	live       int // entities with a bound
	happy      int64
	maxRatio   float64
	checks     int64
	violations []string
}

// newAuditor prepares the audit of window [from, to] over exported state.
func newAuditor(st service.CommunityState, from, to int64) (*auditor, error) {
	a := &auditor{id: st.ID, from: from, to: to}
	if to < from {
		return nil, fmt.Errorf("%s: empty audit window [%d,%d]", st.ID, from, to)
	}
	switch st.Kind {
	case service.KindPoly:
		if st.Poly == nil {
			return nil, fmt.Errorf("%s: poly community exports no poly state", st.ID)
		}
		a.ends = make([][2]int, st.Poly.Slots)
		a.bound = make([]int64, st.Poly.Slots)
		for _, e := range st.Poly.Edges {
			if e.Slot < 0 || e.Slot >= st.Poly.Slots || int(e.Layer) >= len(st.Poly.Layers) {
				return nil, fmt.Errorf("%s: edge (%d,%d) exports slot %d layer %d", st.ID, e.U, e.V, e.Slot, e.Layer)
			}
			a.ends[e.Slot] = [2]int{e.U, e.V}
			a.bound[e.Slot] = st.Poly.Layers[e.Layer].Period
		}
		a.mark = make([]bool, st.Families)
	default:
		code, err := prefixcode.ByName(st.Code)
		if err != nil {
			return nil, err
		}
		if len(st.Coloring) != st.Families {
			return nil, fmt.Errorf("%s: %d colors for %d families", st.ID, len(st.Coloring), st.Families)
		}
		a.adj = make([][]int, st.Families)
		for _, e := range st.Edges {
			a.adj[e[0]] = append(a.adj[e[0]], e[1])
			a.adj[e[1]] = append(a.adj[e[1]], e[0])
		}
		a.bound = make([]int64, st.Families)
		for v, c := range st.Coloring {
			if c < 1 || code.Len(uint64(c)) > 62 {
				return nil, fmt.Errorf("%s: family %d has color %d", st.ID, v, c)
			}
			a.bound[v] = int64(1) << code.Len(uint64(c))
		}
		a.mark = make([]bool, st.Families)
	}
	for _, b := range a.bound {
		if b > 0 {
			a.live++
		}
	}
	a.first = make([]int64, len(a.bound))
	a.last = make([]int64, len(a.bound))
	return a, nil
}

func (a *auditor) violate(format string, args ...any) {
	if len(a.violations) < 5 {
		a.violations = append(a.violations, a.id+": "+fmt.Sprintf(format, args...))
	} else {
		a.violations = append(a.violations, "")
	}
}

// visit audits the happy set served for holiday t.
func (a *auditor) visit(t int64, happy []int) {
	a.checks++
	a.happy += int64(len(happy))
	for _, x := range happy {
		if x < 0 || x >= len(a.bound) || a.bound[x] == 0 {
			a.violate("holiday %d: happy entity %d does not exist", t, x)
			continue
		}
		if a.first[x] == 0 {
			a.first[x] = t
		} else {
			a.gap(x, t-a.last[x])
		}
		a.last[x] = t
	}
	if a.ends != nil {
		for _, x := range happy {
			if x < 0 || x >= len(a.ends) || a.bound[x] == 0 {
				continue
			}
			for _, f := range a.ends[x] {
				if a.mark[f] {
					a.violate("holiday %d: family %d meets twice (not a matching)", t, f)
				}
				a.mark[f] = true
			}
		}
		for _, x := range happy {
			if x >= 0 && x < len(a.ends) {
				a.mark[a.ends[x][0]], a.mark[a.ends[x][1]] = false, false
			}
		}
		return
	}
	for _, v := range happy {
		if v >= 0 && v < len(a.mark) {
			a.mark[v] = true
		}
	}
	for _, v := range happy {
		if v < 0 || v >= len(a.adj) {
			continue
		}
		for _, u := range a.adj[v] {
			if u > v && a.mark[u] {
				a.violate("holiday %d: married families %d and %d are both happy", t, v, u)
			}
		}
	}
	for _, v := range happy {
		if v >= 0 && v < len(a.mark) {
			a.mark[v] = false
		}
	}
}

// gap records one observed wait of entity x.
func (a *auditor) gap(x int, g int64) {
	r := float64(g) / float64(a.bound[x])
	a.maxRatio = max(a.maxRatio, r)
	if r > 1 {
		a.violate("entity %d waited %d holidays, bound %d", x, g, a.bound[x])
	}
}

// finish checks the waits at the window's edges: an entity whose bound fits
// the window twice must appear within its bound of either edge.
func (a *auditor) finish() {
	span := a.to - a.from + 1
	for x, b := range a.bound {
		if b == 0 || 2*b > span {
			continue
		}
		if a.first[x] == 0 {
			a.gap(x, span+1)
			continue
		}
		a.gap(x, a.first[x]-a.from+1)
		a.gap(x, a.to-a.last[x]+1)
	}
}

// auditResult sums the final-state audit over all communities.
type auditResult struct {
	checks, failed  int64
	happy, slotDays int64
	maxRatio        float64
	violations      []string
}

// auditState audits every community's final state: a window at least twice
// its largest bound, fetched through Community.AppendWindow, plus sampled
// NextHappy answers compared with the window.
func auditState(sys *system, rng *rand.Rand) (auditResult, error) {
	var res auditResult
	var rows []service.HolidayRow
	for _, c := range sys.comms {
		a, err := newAuditor(c.Export(), 1, 1)
		if err != nil {
			return res, err
		}
		var longest int64
		for _, b := range a.bound {
			longest = max(longest, b)
		}
		span := min(max(2*longest, 64), maxAuditSpan)
		from := 1 + rng.Int64N(1<<30)
		to := from + span - 1
		a.from, a.to = from, to
		for f := from; f <= to; f += auditChunk {
			rows, err = c.AppendWindow(rows[:0], f, min(f+auditChunk-1, to))
			if err != nil {
				return res, err
			}
			for _, r := range rows {
				a.visit(r.Holiday, r.Happy)
			}
		}
		a.finish()
		if a.checks != span {
			a.violate("window [%d,%d] served %d holidays", from, to, a.checks)
		}
		// NextHappy must agree with the first happy holiday of the window.
		nexts := int64(0)
		for i := 0; i < 64 && a.live > 0; i++ {
			x := rng.IntN(len(a.bound))
			if a.bound[x] == 0 || 2*a.bound[x] > span {
				continue
			}
			got, err := c.NextHappy(x, from)
			nexts++
			if err != nil || got != a.first[x] {
				a.violate("NextHappy(%d, %d) = %d (%v), window says %d", x, from, got, err, a.first[x])
			}
		}
		res.checks += a.checks + nexts
		res.failed += int64(len(a.violations))
		for _, v := range a.violations {
			if v != "" && len(res.violations) < 5 {
				res.violations = append(res.violations, v)
			}
		}
		res.happy += a.happy
		res.slotDays += int64(a.live) * span
		res.maxRatio = max(res.maxRatio, a.maxRatio)
	}
	return res, nil
}

// sameState compares exported community states, edges as sets.
func sameState(a, b service.CommunityState) bool {
	norm := func(st service.CommunityState) service.CommunityState {
		st.Edges = slices.Clone(st.Edges)
		for i, e := range st.Edges {
			st.Edges[i] = [2]int{min(e[0], e[1]), max(e[0], e[1])}
		}
		slices.SortFunc(st.Edges, func(x, y [2]int) int {
			if x[0] != y[0] {
				return x[0] - y[0]
			}
			return x[1] - y[1]
		})
		return st
	}
	return reflect.DeepEqual(norm(a), norm(b))
}
