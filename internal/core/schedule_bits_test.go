package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/graph"
)

// bitWindows are the alignments the packed-emission tests sweep: block
// boundaries, interior starts, and single holidays.
var bitWindows = [][2]int64{
	{1, 1}, {1, 64}, {2, 5}, {7, 7}, {37, 211}, {97, 160},
	{windowBlock - 3, windowBlock + 9}, // crosses the block boundary
	{500, 500},
}

// TestWindowBitsMatchesWindow: for every scheduler of the zoo, the packed
// bitmap emission must agree bit-for-bit with the []int rows of Window at
// every alignment — the core layer of the binary-protocol differential
// proof.
func TestWindowBitsMatchesWindow(t *testing.T) {
	for gname, g := range testZoo() {
		for name, mk := range periodicCases(t, g) {
			sched := ScheduleOf(mk(), g.N())
			if _, ok := sched.(BitWindower); !ok {
				t.Fatalf("%s/%s: closed-form schedule does not implement BitWindower", gname, name)
			}
			checkWindowBits(t, gname+"/"+name, sched, g.N())
		}
	}
	checkWindowBits(t, "fixed/25%-vacant", fixedSchedule(200, 4), 200)
}

// fixedSchedule builds a NewFixedPeriodic schedule over n entities with
// dyadic periods in [2, 1024] (the shape of codeword periods) and random
// phases; when vacantEvery > 0, every vacantEvery-th entity is vacant.
func fixedSchedule(n, vacantEvery int) *PeriodicSchedule {
	rng := rand.New(rand.NewPCG(uint64(n), uint64(vacantEvery)))
	periods := make([]int64, n)
	offsets := make([]int64, n)
	for v := range periods {
		if vacantEvery > 0 && v%vacantEvery == vacantEvery-1 {
			continue
		}
		periods[v] = int64(2) << rng.IntN(10)
		offsets[v] = rng.Int64N(periods[v])
	}
	ps, err := NewFixedPeriodic("fixed", periods, offsets)
	if err != nil {
		panic(err)
	}
	return ps
}

// TestWindowBitsFallbackMatchesWindow: schedules without native bitmap
// emission (replay cursors over stateful schedulers) must serve identical
// packed rows through the WindowBits fallback packing.
func TestWindowBitsFallbackMatchesWindow(t *testing.T) {
	g := graph.GNP(70, 0.08, 11)
	mk := func() (Scheduler, error) { return NewFirstGrab(g, 5), nil }
	s, _ := mk()
	sched := NewReplaySchedule(s, mk)
	if _, ok := sched.(BitWindower); ok {
		t.Fatal("replay schedule unexpectedly implements BitWindower; the fallback path is untested")
	}
	checkWindowBits(t, "replay/first-grab", sched, g.N())
}

// checkWindowBits compares WindowBits against Window on every alignment of
// bitWindows. Window is recorded first (the replay cursor serializes
// internally, so interleaving the two would deadlock on reentrancy).
func checkWindowBits(t *testing.T, label string, sched Schedule, n int) {
	t.Helper()
	for _, w := range bitWindows {
		var want [][]int
		sched.Window(w[0], w[1], func(_ int64, happy []int) {
			want = append(want, append([]int(nil), happy...))
		})
		ref := graph.NewBitset(n)
		i := 0
		WindowBits(sched, n, w[0], w[1], func(tt int64, row graph.Bitset) {
			if tt != w[0]+int64(i) {
				t.Fatalf("%s: window [%d,%d] visited holiday %d at position %d", label, w[0], w[1], tt, i)
			}
			if len(row) != (n+63)/64 {
				t.Fatalf("%s: holiday %d row has %d words, want ⌈%d/64⌉", label, tt, len(row), n)
			}
			ref.Reset()
			for _, v := range want[i] {
				ref.Set(v)
			}
			for wi := range row {
				if row[wi] != ref[wi] {
					t.Fatalf("%s: holiday %d word %d = %x, want %x (happy %v)", label, tt, wi, row[wi], ref[wi], want[i])
				}
			}
			i++
		})
		if i != len(want) {
			t.Fatalf("%s: window [%d,%d] emitted %d bitmap rows, Window produced %d", label, w[0], w[1], i, len(want))
		}
	}
}

// TestWindowBitsOutOfRange: out-of-range windows must emit nothing, exactly
// like Window.
func TestWindowBitsOutOfRange(t *testing.T) {
	g := graph.Star(9)
	sched := ScheduleOf(NewDegreeBoundSequential(g), g.N())
	for _, w := range [][2]int64{{0, 5}, {-3, -1}, {9, 3}, {MaxHoliday + 1, MaxHoliday + 2}} {
		WindowBits(sched, g.N(), w[0], w[1], func(tt int64, _ graph.Bitset) {
			t.Fatalf("window [%d,%d] visited holiday %d", w[0], w[1], tt)
		})
	}
}

// BenchmarkWindowBits measures the packed closed-form emission against the
// []int path of BenchmarkWindowRandomAccess-style queries.
func BenchmarkWindowBits(b *testing.B) {
	g := graph.GNP(1024, 0.01, 7)
	sched := ScheduleOf(NewDegreeBoundSequential(g), g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := int64(1 + (i*97)%100000)
		WindowBits(sched, g.N(), from, from+51, func(int64, graph.Bitset) {})
	}
}

// BenchmarkPeriodicWindow measures the closed-form window walkers on a
// 4096-entity schedule, fully live and with every fourth entity vacant (the
// shape of a churned poly instance), through both the []int rows of Window
// and the packed rows of WindowBits.
func BenchmarkPeriodicWindow(b *testing.B) {
	const n = 4096
	for _, c := range []struct {
		name string
		ps   *PeriodicSchedule
	}{{"all-live", fixedSchedule(n, 0)}, {"25%-vacant", fixedSchedule(n, 4)}} {
		b.Run(c.name+"/Window", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				from := int64(1 + (i*97)%100000)
				c.ps.Window(from, from+255, func(int64, []int) {})
			}
		})
		b.Run(c.name+"/WindowBits", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				from := int64(1 + (i*97)%100000)
				c.ps.WindowBits(from, from+255, func(int64, graph.Bitset) {})
			}
		})
	}
}
