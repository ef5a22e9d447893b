package service

import (
	"errors"
	"reflect"
	"testing"
)

// memJournal records every logged record in memory, optionally failing.
type memJournal struct {
	recs []Record
	seq  uint64
	fail error
}

func (j *memJournal) Log(rec Record) (uint64, error) {
	if j.fail != nil {
		return 0, j.fail
	}
	j.seq++
	j.recs = append(j.recs, rec)
	return j.seq, nil
}

// TestJournalReceivesEveryMutation: each of the five mutation kinds logs
// exactly one record, with the fields replay needs.
func TestJournalReceivesEveryMutation(t *testing.T) {
	reg := New(Opts{})
	j := &memJournal{}
	reg.SetJournal(j)

	c, err := reg.Create("c", 4, [][2]int{{0, 1}}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddFamily(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Marry(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Divorce(0, 1); err != nil {
		t.Fatal(err)
	}
	if ok, err := reg.Delete("c"); !ok || err != nil {
		t.Fatal("delete failed")
	}

	want := []Record{
		{Op: OpCreate, ID: "c", N: 4, Edges: [][2]int{{0, 1}}, Code: "omega"},
		{Op: OpAddFamily, ID: "c"},
		{Op: OpMarry, ID: "c", U: 1, V: 2},
		{Op: OpDivorce, ID: "c", U: 0, V: 1},
		{Op: OpDelete, ID: "c"},
	}
	if !reflect.DeepEqual(j.recs, want) {
		t.Fatalf("journal saw:\n %+v\nwant:\n %+v", j.recs, want)
	}
}

// TestJournalFailureIsWriteAhead: when the journal rejects a record the
// mutation must not apply — an op the client saw fail cannot silently
// change the schedule.
func TestJournalFailureIsWriteAhead(t *testing.T) {
	reg := New(Opts{})
	j := &memJournal{}
	reg.SetJournal(j)
	// The divorce below must target a real marriage: no-op churn (divorcing
	// strangers, re-marrying spouses) never touches the journal at all.
	c, err := reg.Create("c", 4, [][2]int{{2, 3}}, "")
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats()

	j.fail = errors.New("disk full")
	if _, err := c.Marry(0, 1); err == nil {
		t.Fatal("Marry acked despite journal failure")
	}
	if _, err := c.AddFamily(); err == nil {
		t.Fatal("AddFamily acked despite journal failure")
	}
	if _, _, err := c.Divorce(2, 3); err == nil {
		t.Fatal("Divorce acked despite journal failure")
	}
	// No-op churn succeeds without consulting the (failing) journal.
	if removed, _, err := c.Divorce(0, 1); removed || err != nil {
		t.Fatalf("no-op divorce: removed=%v err=%v, want false,nil", removed, err)
	}
	if recolored, err := c.Marry(2, 3); recolored || err != nil {
		t.Fatalf("no-op marry: recolored=%v err=%v, want false,nil", recolored, err)
	}
	if ok, err := reg.Delete("c"); ok || err == nil {
		t.Fatal("Delete acked despite journal failure")
	}
	if _, err := reg.Create("d", 2, nil, ""); err == nil {
		t.Fatal("Create acked despite journal failure")
	}
	if got := c.Stats(); got != before {
		t.Fatalf("journal failure mutated state: %+v -> %+v", before, got)
	}
	if _, ok := reg.Get("d"); ok {
		t.Fatal("failed create registered the community anyway")
	}

	// Validation errors must not reach the journal at all.
	j.fail = nil
	n := len(j.recs)
	if _, err := c.Marry(0, 99); err == nil {
		t.Fatal("want validation error")
	}
	if len(j.recs) != n {
		t.Fatal("invalid op was journaled")
	}
}

// TestExportRestoreRoundTrip: a restored community answers identically and
// keeps the exported version, recolorings, and sequence.
func TestExportRestoreRoundTrip(t *testing.T) {
	reg := New(Opts{})
	j := &memJournal{}
	reg.SetJournal(j)
	c, err := reg.Create("c", 12, ringEdges(12), "gamma")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := c.Marry(i, (i+5)%12); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Export()
	if st.Seq == 0 {
		t.Fatal("export lost the journal sequence")
	}

	reg2 := New(Opts{})
	c2, err := reg2.Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := c.Stats(), c2.Stats()
	s1.CacheHits, s1.CacheMisses, s2.CacheHits, s2.CacheMisses = 0, 0, 0, 0
	if s1 != s2 {
		t.Fatalf("restored stats %+v, want %+v", s2, s1)
	}
	rows1, err := c.Window(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := c2.Window(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows1, rows2) {
		t.Fatal("restored community's window diverged")
	}
	for v := 0; v < 12; v++ {
		n1, err1 := c.NextHappy(v, 1)
		n2, err2 := c2.NextHappy(v, 1)
		if err1 != nil || err2 != nil || n1 != n2 {
			t.Fatalf("NextHappy(%d) diverged: %d,%v vs %d,%v", v, n1, err1, n2, err2)
		}
	}
}

// TestRestoreRejectsImproperColoring: a snapshot whose coloring conflicts
// with its edges must be refused — serving an improper coloring would break
// the independence guarantee silently.
func TestRestoreRejectsImproperColoring(t *testing.T) {
	st := CommunityState{
		ID:       "bad",
		Families: 2,
		Edges:    [][2]int{{0, 1}},
		Coloring: []int{1, 1}, // monochromatic edge
	}
	if _, err := New(Opts{}).Restore(st); err == nil {
		t.Fatal("restore accepted an improper coloring")
	}
}

// TestApplySkipsReplayedRecords: Apply is idempotent under sequence
// filtering — a record at or below a community's sequence is a no-op.
func TestApplySkipsReplayedRecords(t *testing.T) {
	reg := New(Opts{})
	c, err := reg.Restore(CommunityState{
		ID: "c", Families: 3, Edges: [][2]int{{0, 1}},
		Coloring: []int{1, 2, 1}, Seq: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stale records (≤ 10) must not apply.
	if err := reg.Apply(9, Record{Op: OpAddFamily, ID: "c"}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Apply(10, Record{Op: OpDelete, ID: "c"}); err != nil {
		t.Fatal(err)
	}
	if got := c.Families(); got != 3 {
		t.Fatalf("stale record applied: families = %d", got)
	}
	if _, ok := reg.Get("c"); !ok {
		t.Fatal("stale delete removed the community")
	}
	// A fresh record applies and advances the sequence.
	if err := reg.Apply(11, Record{Op: OpAddFamily, ID: "c"}); err != nil {
		t.Fatal(err)
	}
	if got := c.Families(); got != 4 {
		t.Fatalf("fresh record not applied: families = %d", got)
	}
	if got := c.Export().Seq; got != 11 {
		t.Fatalf("sequence = %d, want 11", got)
	}
	// Ops for unknown communities are skipped, not errors.
	if err := reg.Apply(12, Record{Op: OpMarry, ID: "ghost", U: 0, V: 1}); err != nil {
		t.Fatal(err)
	}
	// Genuinely inconsistent records still error.
	if err := reg.Apply(13, Record{Op: OpMarry, ID: "c", U: 0, V: 99}); err == nil {
		t.Fatal("out-of-range replay accepted")
	}
}
