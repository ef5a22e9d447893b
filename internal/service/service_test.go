package service

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/prefixcode"
)

// ringEdges returns the cycle edges over n families.
func ringEdges(n int) [][2]int {
	edges := make([][2]int, n)
	for i := 0; i < n; i++ {
		edges[i] = [2]int{i, (i + 1) % n}
	}
	return edges
}

func TestRegistryLifecycle(t *testing.T) {
	reg := New(Opts{})
	if _, err := reg.Create("", 4, nil, ""); err == nil {
		t.Fatal("want error for empty id")
	}
	if _, err := reg.Create("c", 0, nil, ""); err == nil {
		t.Fatal("want error for zero families")
	}
	if _, err := reg.Create("c", 4, [][2]int{{0, 9}}, ""); err == nil {
		t.Fatal("want error for out-of-range edge")
	}
	if _, err := reg.Create("c", 4, nil, "no-such-code"); err == nil {
		t.Fatal("want error for unknown prefix code")
	}
	c, err := reg.Create("c", 6, ringEdges(6), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("c", 3, nil, ""); err == nil {
		t.Fatal("want error for duplicate id")
	}
	got, ok := reg.Get("c")
	if !ok || got != c {
		t.Fatal("Get did not return the created community")
	}
	if ids := reg.List(); len(ids) != 1 || ids[0] != "c" {
		t.Fatalf("List = %v, want [c]", ids)
	}
	if ok, err := reg.Delete("c"); !ok || err != nil {
		t.Fatalf("Delete = %v, %v, want true, nil", ok, err)
	}
	if ok, err := reg.Delete("c"); ok || err != nil {
		t.Fatalf("second Delete = %v, %v, want false, nil", ok, err)
	}
}

// TestWindowMatchesDynamicScheduler: the served window must equal the §6
// scheduler's own Next sequence at freeze time.
func TestWindowMatchesDynamicScheduler(t *testing.T) {
	const n = 20
	reg := New(Opts{})
	c, err := reg.Create("fam", n, ringEdges(n), "omega")
	if err != nil {
		t.Fatal(err)
	}
	// Reference: an identical standalone dynamic scheduler.
	b := graph.NewBuilder(n)
	for _, e := range ringEdges(n) {
		b.AddEdge(e[0], e[1])
	}
	ref, err := core.NewDynamicColorBound(b.Graph(), prefixcode.Omega{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.Window(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 64 {
		t.Fatalf("got %d rows, want 64", len(rows))
	}
	for i, row := range rows {
		want := ref.Next()
		if row.Holiday != int64(i+1) {
			t.Fatalf("row %d has holiday %d", i, row.Holiday)
		}
		if fmt.Sprint(row.Happy) != fmt.Sprint(want) && !(len(row.Happy) == 0 && len(want) == 0) {
			t.Fatalf("holiday %d: happy %v, want %v", row.Holiday, row.Happy, want)
		}
	}
}

func TestWindowValidation(t *testing.T) {
	reg := New(Opts{})
	c, err := reg.Create("v", 4, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	windows := [][2]int64{
		{0, 5},
		{5, 4},
		{1, MaxWindow + 1},
		// Near-MaxInt64 windows must be rejected, not overflow (they pass
		// the span check but wrap the closed-form arithmetic).
		{math.MaxInt64 - 10, math.MaxInt64},
		{core.MaxHoliday - 1, core.MaxHoliday + 2},
	}
	for _, w := range windows {
		if _, err := c.Window(w[0], w[1]); err == nil {
			t.Fatalf("window [%d,%d]: want error", w[0], w[1])
		}
	}
	if _, err := c.NextHappy(-1, 1); err == nil {
		t.Fatal("want error for negative family")
	}
	if _, err := c.NextHappy(4, 1); err == nil {
		t.Fatal("want error for out-of-range family")
	}
	if _, err := c.NextHappy(0, core.MaxHoliday+1); err == nil {
		t.Fatal("want error for holiday beyond MaxHoliday")
	}
	if next, err := c.NextHappy(0, core.MaxHoliday-64); err != nil || next < core.MaxHoliday-64 {
		t.Fatalf("boundary NextHappy = (%d, %v), want non-wrapped answer", next, err)
	}
}

// TestScheduleCache: repeated queries hit the cached frozen schedule;
// churn that recolors invalidates, churn that does not recolor keeps it.
func TestScheduleCache(t *testing.T) {
	reg := New(Opts{})
	// A path 0–1–2 plus isolated 3: colors are deterministic greedy.
	c, err := reg.Create("cache", 4, [][2]int{{0, 1}, {1, 2}}, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Window(1, 32); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.CacheMisses != 1 {
		t.Fatalf("5 identical queries froze %d schedules, want 1", st.CacheMisses)
	}
	if st.CacheHits != 4 {
		t.Fatalf("cache hits = %d, want 4", st.CacheHits)
	}

	// Families 2 and 3 share color 1 under the greedy init (colors are
	// [2,3,1,1]); marrying them forces a recoloring → invalidation.
	recolored, err := c.Marry(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !recolored {
		t.Fatal("expected marrying same-colored families to recolor")
	}
	if _, err := c.Window(1, 32); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().CacheMisses; got != 2 {
		t.Fatalf("post-recoloring misses = %d, want 2", got)
	}

	// Families 0 (color 2) and 2 (color 1) differ — no shared color, so
	// this marriage must NOT invalidate the cache.
	recolored, err = c.Marry(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if recolored {
		t.Fatal("differently colored marriage should not recolor")
	}
	if _, err := c.Window(1, 32); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().CacheMisses; got != 2 {
		t.Fatalf("cache was invalidated by a non-recoloring marriage: misses = %d", got)
	}

	// Adding a family changes the node set → invalidation.
	if _, err := c.AddFamily(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Window(1, 32); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().CacheMisses; got != 3 {
		t.Fatalf("post-AddFamily misses = %d, want 3", got)
	}
}

// TestFrozenScheduleConsistentUnderChurn: a schedule handed out before
// churn keeps answering from its snapshot.
func TestFrozenScheduleConsistentUnderChurn(t *testing.T) {
	reg := New(Opts{})
	c, err := reg.Create("snap", 10, ringEdges(10), "")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := c.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	before := sched.HappySet(7)
	for i := 0; i < 8; i += 2 {
		if _, err := c.Marry(i, (i+5)%10); err != nil {
			t.Fatal(err)
		}
	}
	if got := sched.HappySet(7); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Fatalf("frozen schedule changed under churn: %v → %v", before, got)
	}
}

// TestConcurrentQueriesAndChurn hammers one community with parallel window
// and next queries while marriages and divorces churn — the race detector
// is the assertion (the CI runs this package under -race).
func TestConcurrentQueriesAndChurn(t *testing.T) {
	const n = 64
	reg := New(Opts{})
	c, err := reg.Create("hammer", n, ringEdges(n), "")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				from := int64(1 + (i*37+w)%500)
				rows, err := c.Window(from, from+25)
				if err != nil {
					t.Error(err)
					return
				}
				if len(rows) != 26 {
					t.Errorf("got %d rows", len(rows))
					return
				}
				if _, err := c.NextHappy((w*13+i)%n, from); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				u := (i*7 + w) % n
				v := (u + 2 + i%5) % n
				if u == v {
					continue
				}
				if _, err := c.Marry(u, v); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := c.Divorce(u, v); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Every happy set served must have been independent in its snapshot;
	// spot-check the final schedule against the final graph.
	sched, err := c.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	g := mustGraph(t, c)
	bad := 0
	sched.Window(1, 256, func(tt int64, happy []int) {
		if !g.IsIndependent(happy) {
			bad++
		}
	})
	if bad != 0 {
		t.Fatalf("%d holidays with dependent happy sets in final schedule", bad)
	}
}

// mustGraph snapshots the community's current conflict graph through a
// fresh window of stats — exposed only for tests via the dynamic core.
func mustGraph(t *testing.T, c *Community) *graph.Graph {
	t.Helper()
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.be.(*classicBackend).dyn.Graph()
}
