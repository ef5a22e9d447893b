package benchkit

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/service"
)

// testPolyScenario is a tiny poly-kind workload for end-to-end runner tests.
// Every community starts with m ≥ n edges so next-happy ops stay in slot
// range (see CommunitySpec).
func testPolyScenario() *Scenario {
	return &Scenario{
		Name: "poly-test",
		Communities: []CommunitySpec{
			{ID: "poly-gnp-t", Spec: "gnp:n=48,p=0.08", Kind: "poly", DefaultDemand: 64},
			{ID: "poly-ring-t", Spec: "cycle:n=24", Kind: "poly", Code: "bucketed", DefaultDemand: 32},
			{ID: "poly-clique-t", Spec: "clique:n=8", Kind: "poly", DefaultDemand: 128},
		},
		Mix:        OpMix{Window: 55, Next: 25, Marry: 12, Divorce: 8},
		WindowSpan: 16,
		Horizon:    1 << 16,
		Duration:   150 * time.Millisecond,
	}
}

// checkPolySnapshot extends checkSnapshot with the schema-5 poly fields.
func checkPolySnapshot(t *testing.T, s *Snapshot, wantDriver string) {
	t.Helper()
	checkSnapshot(t, s, wantDriver)
	if s.Totals.Edges <= 0 {
		t.Errorf("poly run recorded %d edges, want positive", s.Totals.Edges)
	}
	if !(s.Totals.MaxGapRatio > 0) || s.Totals.MaxGapRatio > 1 {
		t.Errorf("poly run recorded max gap ratio %v, want in (0,1] (demands met)", s.Totals.MaxGapRatio)
	}
}

// TestRunPolyInProc drives the poly edge-scheduling path through the
// in-process driver: the run must complete error-free, record the schema-5
// edges/max_gap_ratio totals, and self-compare cleanly.
func TestRunPolyInProc(t *testing.T) {
	reg := service.New(service.Opts{})
	d := NewInProcDriver(reg)
	snap, err := Run(testPolyScenario(), d, Options{Seed: 3, Workers: 2, Rev: "test"})
	if err != nil {
		t.Fatal(err)
	}
	checkPolySnapshot(t, snap, "inproc")
	if got := reg.List(); len(got) != 0 {
		t.Errorf("driver left communities registered after Close: %v", got)
	}
	path := t.TempDir() + "/BENCH_poly_test.json"
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Totals.Edges != snap.Totals.Edges || back.Totals.MaxGapRatio != snap.Totals.MaxGapRatio {
		t.Fatalf("poly totals did not survive the file round trip: %+v vs %+v", back.Totals, snap.Totals)
	}
	if cmp := Compare(back, snap, 0.25); !cmp.Pass {
		t.Fatalf("run should not regress against its own snapshot: %+v", cmp.Deltas)
	}
}

// TestRunPolyHTTP drives the poly workload through the full HTTP stack:
// kind-dispatching creates, slot-indexed reads, demand-default churn, and
// the stats-endpoint poly probe.
func TestRunPolyHTTP(t *testing.T) {
	reg := service.New(service.Opts{})
	srv := httptest.NewServer(service.NewHandler(service.HandlerOpts{Owner: reg}))
	defer srv.Close()
	d := NewHTTPDriver(srv.URL, 2)
	snap, err := Run(testPolyScenario(), d, Options{Seed: 3, Workers: 2, Rev: "test"})
	if err != nil {
		t.Fatal(err)
	}
	checkPolySnapshot(t, snap, "http")
	if got := reg.List(); len(got) != 0 {
		t.Errorf("HTTP driver left communities on the server after Close: %v", got)
	}
}
