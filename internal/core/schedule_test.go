package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/prefixcode"
)

// recordNext replays a fresh scheduler sequentially and records the happy
// set of every holiday in [1, horizon] (index t-1).
func recordNext(s Scheduler, horizon int64) [][]int {
	out := make([][]int, horizon)
	for t := int64(1); t <= horizon; t++ {
		out[t-1] = append([]int(nil), s.Next()...)
	}
	return out
}

// sameSet compares two happy sets treating nil and empty as equal.
func sameSet(a, b []int) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// periodicCases builds the three perfectly periodic schedulers over g.
func periodicCases(t *testing.T, g *graph.Graph) map[string]func() Scheduler {
	t.Helper()
	return map[string]func() Scheduler{
		"degree-bound": func() Scheduler { return NewDegreeBoundSequential(g) },
		"color-bound": func() Scheduler {
			s, err := NewColorBound(g, greedyColoring(g), prefixcode.Omega{})
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"round-robin": func() Scheduler {
			s, err := NewRoundRobin(g, greedyColoring(g))
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
}

// TestPeriodicScheduleMatchesNext: the closed-form schedule must reproduce
// the live Next sequence exactly — HappySet, every Window alignment, and
// NextHappy — across the graph zoo.
func TestPeriodicScheduleMatchesNext(t *testing.T) {
	const horizon = 160
	for gname, g := range testZoo() {
		for name, mk := range periodicCases(t, g) {
			want := recordNext(mk(), horizon)
			sched := ScheduleOf(mk(), g.N())
			if !sched.RandomAccess() {
				t.Fatalf("%s/%s: periodic schedule must be random access", gname, name)
			}
			for t0 := int64(1); t0 <= horizon; t0 += 37 {
				if got := sched.HappySet(t0); !sameSet(got, want[t0-1]) {
					t.Fatalf("%s/%s: HappySet(%d) = %v, want %v", gname, name, t0, got, want[t0-1])
				}
			}
			for _, w := range [][2]int64{{1, horizon}, {2, 5}, {7, 7}, {97, 160}, {horizon, horizon}} {
				seen := w[0]
				sched.Window(w[0], w[1], func(tt int64, happy []int) {
					if tt != seen {
						t.Fatalf("%s/%s: window [%d,%d] visited %d, want %d", gname, name, w[0], w[1], tt, seen)
					}
					if !sameSet(happy, want[tt-1]) {
						t.Fatalf("%s/%s: Window happy at %d = %v, want %v", gname, name, tt, happy, want[tt-1])
					}
					seen++
				})
				if seen != w[1]+1 {
					t.Fatalf("%s/%s: window [%d,%d] stopped at %d", gname, name, w[0], w[1], seen)
				}
			}
			for v := 0; v < g.N(); v += 7 {
				for _, from := range []int64{1, 3, 50} {
					got := sched.NextHappy(v, from)
					wantNext := int64(0)
					for tt := from; tt <= 4*horizon; tt++ {
						if HappyAt(mk().(Periodic), v, tt) {
							wantNext = tt
							break
						}
					}
					if got != wantNext {
						t.Fatalf("%s/%s: NextHappy(%d, %d) = %d, want %d", gname, name, v, from, got, wantNext)
					}
				}
			}
		}
	}
}

// TestScheduleOfLeavesPeriodicUnadvanced: snapshotting must not call Next.
func TestScheduleOfLeavesPeriodicUnadvanced(t *testing.T) {
	g := graph.GNP(40, 0.1, 5)
	db := NewDegreeBoundSequential(g)
	sched := ScheduleOf(db, g.N())
	sched.Window(1, 100, func(int64, []int) {})
	sched.HappySet(31)
	if db.Holiday() != 0 {
		t.Fatalf("closed-form queries advanced the scheduler to holiday %d", db.Holiday())
	}
}

// TestReplayScheduleWindowMatchesNext: the replay cursor must agree with
// sequential Next replay for windows at arbitrary alignments, including
// backward seeks served from the memo and full rewinds through the factory.
func TestReplayScheduleWindowMatchesNext(t *testing.T) {
	g := graph.GNP(60, 0.08, 7)
	cases := map[string]func() Scheduler{
		"phased-greedy": func() Scheduler {
			s, err := NewPhasedGreedy(g, greedyColoring(g))
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"first-grab": func() Scheduler { return NewFirstGrab(g, 11) },
		"greedy-mis": func() Scheduler { return NewGreedyMIS(g, 12) },
	}
	const horizon = DefaultReplayMemo + 600 // force ring wraparound
	for name, mk := range cases {
		want := recordNext(mk(), horizon)
		sched := NewReplaySchedule(mk(), func() (Scheduler, error) { return mk(), nil })
		if sched.RandomAccess() {
			t.Fatalf("%s: replay schedule must not claim random access", name)
		}
		check := func(from, to int64) {
			t.Helper()
			next := from
			sched.Window(from, to, func(tt int64, happy []int) {
				if tt != next {
					t.Fatalf("%s: window [%d,%d] visited %d, want %d", name, from, to, tt, next)
				}
				if !sameSet(happy, want[tt-1]) {
					t.Fatalf("%s: happy at %d = %v, want %v", name, tt, happy, want[tt-1])
				}
				next++
			})
		}
		check(40, 80)                   // forward past start
		check(50, 60)                   // inside memo
		check(1, 30)                    // backward within memo (cursor 80)
		check(horizon-100, horizon)     // deep forward, wraps the ring
		check(1, 50)                    // rewind through the factory
		check(horizon-200, horizon-150) // forward again after rewind
		if got := sched.HappySet(5); !sameSet(got, want[4]) {
			t.Fatalf("%s: HappySet(5) = %v, want %v", name, got, want[4])
		}
	}
}

// TestReplayNextHappy: the scan must find the first occurrence at or after
// from, agreeing with the recorded sequence.
func TestReplayNextHappy(t *testing.T) {
	g := graph.Cycle(9)
	mk := func() Scheduler {
		s, err := NewPhasedGreedy(g, greedyColoring(g))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	const horizon = 64
	want := recordNext(mk(), horizon)
	sched := NewReplaySchedule(mk(), func() (Scheduler, error) { return mk(), nil })
	for v := 0; v < g.N(); v++ {
		for _, from := range []int64{1, 5, 20} {
			wantNext := int64(0)
			for tt := from; tt <= horizon; tt++ {
				for _, u := range want[tt-1] {
					if u == v {
						wantNext = tt
						break
					}
				}
				if wantNext != 0 {
					break
				}
			}
			if wantNext == 0 {
				continue // beyond the recorded horizon; skip
			}
			if got := sched.NextHappy(v, from); got != wantNext {
				t.Fatalf("NextHappy(%d, %d) = %d, want %d", v, from, got, wantNext)
			}
		}
	}
}

// TestForwardOnlyReplayPanicsOnRewind: ScheduleOf over a stateful scheduler
// has no factory, so a seek before the memo window must fail loudly rather
// than silently return wrong holidays.
func TestForwardOnlyReplayPanicsOnRewind(t *testing.T) {
	g := graph.Cycle(6)
	sched := ScheduleOf(NewFirstGrab(g, 3), g.N())
	sched.Window(1, DefaultReplayMemo+10, func(int64, []int) {})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on rewind past memo without a factory")
		}
	}()
	sched.HappySet(1)
}

// TestScheduleOverflowGuards: queries near the int64 edge must not wrap
// into negative holidays (the closed form adds up to a full period to
// from). Beyond MaxHoliday nothing is served; at the boundary the answers
// stay exact and non-negative.
func TestScheduleOverflowGuards(t *testing.T) {
	g := graph.Star(8)
	sched := ScheduleOf(NewDegreeBoundSequential(g), g.N())
	visits := 0
	sched.Window(math.MaxInt64-7, math.MaxInt64, func(int64, []int) { visits++ })
	if visits != 0 {
		t.Fatalf("window beyond MaxHoliday served %d holidays, want 0", visits)
	}
	if got := sched.NextHappy(0, math.MaxInt64-1); got != 0 {
		t.Fatalf("NextHappy beyond MaxHoliday = %d, want 0", got)
	}
	sched.Window(MaxHoliday-3, math.MaxInt64, func(tt int64, happy []int) {
		if tt < MaxHoliday-3 || tt > MaxHoliday {
			t.Fatalf("boundary window visited holiday %d", tt)
		}
		visits++
	})
	if visits != 4 {
		t.Fatalf("boundary window served %d holidays, want 4", visits)
	}
	if got := sched.NextHappy(0, MaxHoliday-16); got < MaxHoliday-16 {
		t.Fatalf("NextHappy near MaxHoliday wrapped to %d", got)
	}
	// HappySet serves nothing outside [1, MaxHoliday], like Window, for
	// closed-form and replay schedules alike.
	mk := func() (Scheduler, error) { return NewFirstGrab(g, 5), nil }
	first, _ := mk()
	for _, s := range []Schedule{sched, NewReplaySchedule(first, mk)} {
		for _, tt := range []int64{0, -8, MaxHoliday + 4} {
			if got := s.HappySet(tt); len(got) != 0 {
				t.Fatalf("%s: HappySet(%d) = %v, want empty", s.Name(), tt, got)
			}
		}
	}
}

// TestNewFixedPeriodicValidates pins the snapshot constructor's input checks.
func TestNewFixedPeriodicValidates(t *testing.T) {
	if _, err := NewFixedPeriodic("x", []int64{2, 2}, []int64{0}); err == nil {
		t.Fatal("want error on length mismatch")
	}
	if _, err := NewFixedPeriodic("x", []int64{-1}, []int64{0}); err == nil {
		t.Fatal("want error on negative period")
	}
	if _, err := NewFixedPeriodic("x", []int64{0}, []int64{1}); err == nil {
		t.Fatal("want error on a vacant entity with nonzero offset")
	}
	if _, err := NewFixedPeriodic("x", []int64{4}, []int64{4}); err == nil {
		t.Fatal("want error on offset ≥ period")
	}
	sched, err := NewFixedPeriodic("fixed", []int64{4, 2}, []int64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.HappySet(2); !sameSet(got, []int{1}) {
		t.Fatalf("HappySet(2) = %v, want [1]", got)
	}
	if got := sched.NextHappy(0, 2); got != 5 {
		t.Fatalf("NextHappy(0, 2) = %d, want 5", got)
	}
	// Period 0 with offset 0 is a vacant entity: accepted, never happy.
	vacant, err := NewFixedPeriodic("vacant", []int64{2, 0}, []int64{1, 0})
	if err != nil {
		t.Fatalf("vacant entity rejected: %v", err)
	}
	if got := vacant.NextHappy(1, 1); got != 0 {
		t.Fatalf("vacant NextHappy = %d, want 0", got)
	}
	for tt := int64(1); tt <= 8; tt++ {
		if got := vacant.HappySet(tt); slices.Contains(got, 1) {
			t.Fatalf("HappySet(%d) = %v contains the vacant entity", tt, got)
		}
	}
	vacant.Window(1, 8, func(tt int64, happy []int) {
		if slices.Contains(happy, 1) {
			t.Fatalf("Window holiday %d = %v contains the vacant entity", tt, happy)
		}
	})
}

// TestDynamicFrozenSchedule: the frozen snapshot must match the live closed
// form at freeze time and stay fixed while the dynamic scheduler churns.
func TestDynamicFrozenSchedule(t *testing.T) {
	g := graph.GNP(30, 0.12, 9)
	dc, err := NewDynamicColorBound(g, prefixcode.Omega{})
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := dc.FrozenSchedule()
	if err != nil {
		t.Fatal(err)
	}
	want := recordNext(dc, 64)
	for tt := int64(1); tt <= 64; tt++ {
		if got := frozen.HappySet(tt); !sameSet(got, want[tt-1]) {
			t.Fatalf("frozen HappySet(%d) = %v, want %v", tt, got, want[tt-1])
		}
	}
	// Churn the live scheduler; the frozen snapshot must not move.
	before := frozen.HappySet(3)
	for v := 1; v < 10; v++ {
		if _, err := dc.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	if got := frozen.HappySet(3); !sameSet(got, before) {
		t.Fatalf("frozen schedule moved under churn: %v → %v", before, got)
	}
}
