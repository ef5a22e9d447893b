package benchkit

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// testScenario is a tiny mixed workload for end-to-end runner tests.
func testScenario() *Scenario {
	return &Scenario{
		Name: "test",
		Communities: []CommunitySpec{
			{ID: "gnp-t", Spec: "gnp:n=48,p=0.08"},
			{ID: "ring-t", Spec: "cycle:n=24"},
			{ID: "clique-t", Spec: "clique:n=8"},
		},
		Mix:        OpMix{Window: 60, Next: 25, Marry: 9, Divorce: 6},
		WindowSpan: 16,
		Horizon:    1 << 16,
		Duration:   150 * time.Millisecond,
	}
}

// checkSnapshot asserts the invariants every recorded run must satisfy.
func checkSnapshot(t *testing.T, s *Snapshot, wantDriver string) {
	t.Helper()
	if s.Schema != SchemaVersion {
		t.Errorf("schema %d, want %d", s.Schema, SchemaVersion)
	}
	if s.Driver != wantDriver {
		t.Errorf("driver %q, want %q", s.Driver, wantDriver)
	}
	if s.Totals.Ops <= 0 {
		t.Fatalf("no ops recorded: %+v", s.Totals)
	}
	if s.Totals.Errors != 0 {
		t.Errorf("%d op errors in a clean run", s.Totals.Errors)
	}
	if s.Totals.QPS <= 0 {
		t.Errorf("qps %f not positive", s.Totals.QPS)
	}
	if s.Totals.P50Micro <= 0 || s.Totals.P95Micro < s.Totals.P50Micro || s.Totals.P99Micro < s.Totals.P95Micro {
		t.Errorf("quantiles not ordered: p50 %f p95 %f p99 %f",
			s.Totals.P50Micro, s.Totals.P95Micro, s.Totals.P99Micro)
	}
	if s.Totals.CacheHitRatio <= 0 || s.Totals.CacheHitRatio > 1 {
		t.Errorf("cache hit ratio %f outside (0,1]", s.Totals.CacheHitRatio)
	}
	var perOpTotal int64
	for k, o := range s.PerOp {
		if o.Count <= 0 {
			t.Errorf("op %q recorded with zero count", k)
		}
		if k == "batch" {
			// Reserved key: counts whole-batch round trips, not ops.
			continue
		}
		perOpTotal += o.Count
	}
	if perOpTotal != s.Totals.Ops {
		t.Errorf("per-op counts sum to %d, totals say %d", perOpTotal, s.Totals.Ops)
	}
}

// TestRunInProc drives the in-process serving path end to end and checks
// the snapshot is internally consistent and survives a file round trip.
func TestRunInProc(t *testing.T) {
	reg := service.New(service.Opts{})
	d := NewInProcDriver(reg)
	snap, err := Run(testScenario(), d, Options{Seed: 3, Workers: 2, Rev: "test"})
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, snap, "inproc")
	if got := reg.List(); len(got) != 0 {
		t.Errorf("driver left communities registered after Close: %v", got)
	}
	path := t.TempDir() + "/BENCH_test.json"
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if cmp := Compare(back, snap, 0.25); !cmp.Pass {
		t.Fatalf("run should not regress against its own snapshot: %+v", cmp.Deltas)
	}
}

// TestRunHTTP drives the full HTTP stack (handler, routing, JSON) through
// an httptest server and checks the communities are created and torn down.
func TestRunHTTP(t *testing.T) {
	reg := service.New(service.Opts{})
	srv := httptest.NewServer(service.NewHandler(service.HandlerOpts{Owner: reg}))
	defer srv.Close()
	d := NewHTTPDriver(srv.URL, 2)
	snap, err := Run(testScenario(), d, Options{Seed: 3, Workers: 2, Rev: "test"})
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, snap, "http")
	if got := reg.List(); len(got) != 0 {
		t.Errorf("HTTP driver left communities on the server after Close: %v", got)
	}
}

// TestRunThrottled: a QPS target well below the unthrottled rate is honored
// within generous scheduling tolerance.
func TestRunThrottled(t *testing.T) {
	sc := testScenario()
	sc.Duration = 500 * time.Millisecond
	snap, err := Run(sc, NewInProcDriver(service.New(service.Opts{})), Options{Seed: 5, Workers: 2, QPS: 200})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Totals.QPS > 400 {
		t.Errorf("throttle at 200 qps measured %.0f qps", snap.Totals.QPS)
	}
	if snap.QPSTarget != 200 {
		t.Errorf("snapshot records qps target %f, want 200", snap.QPSTarget)
	}
}

// failingDriver serves window/next instantly but errors every churn op —
// a stand-in for a regression that breaks one op class.
type failingDriver struct {
	inner *InProcDriver
}

func (f *failingDriver) Name() string { return "inproc" }
func (f *failingDriver) Setup(sc *Scenario, seed uint64) ([]int, error) {
	return f.inner.Setup(sc, seed)
}
func (f *failingDriver) Do(op Op) error {
	if op.Kind == OpMarry || op.Kind == OpDivorce {
		return errTestChurnBroken
	}
	return f.inner.Do(op)
}
func (f *failingDriver) CacheStats() (int64, int64, error) { return f.inner.CacheStats() }
func (f *failingDriver) Close() error                      { return f.inner.Close() }

var errTestChurnBroken = &testError{"churn path broken"}

type testError struct{ msg string }

func (e *testError) Error() string { return e.msg }

// TestRunErrorsExcludedFromQPS: ops that fail must not count toward the
// gated throughput — failing fast never reads as a speedup.
func TestRunErrorsExcludedFromQPS(t *testing.T) {
	d := &failingDriver{inner: NewInProcDriver(service.New(service.Opts{}))}
	snap, err := Run(testScenario(), d, Options{Seed: 9, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Totals.Errors == 0 {
		t.Fatal("scenario mixes churn ops; expected errors from the failing driver")
	}
	served := float64(snap.Totals.Ops - snap.Totals.Errors)
	wantQPS := served / snap.DurationSec
	if ratio := snap.Totals.QPS / wantQPS; ratio < 0.999 || ratio > 1.001 {
		t.Errorf("qps %.1f counts errored ops; want %.1f (served/elapsed)", snap.Totals.QPS, wantQPS)
	}
}

// TestRunRejectsInvalidScenario: structural problems surface before any
// community is created.
func TestRunRejectsInvalidScenario(t *testing.T) {
	sc := testScenario()
	sc.Mix = OpMix{}
	if _, err := Run(sc, NewInProcDriver(service.New(service.Opts{})), Options{}); err == nil {
		t.Fatal("want error for empty mix")
	}
	sc = testScenario()
	sc.Communities = nil
	if _, err := Run(sc, NewInProcDriver(service.New(service.Opts{})), Options{}); err == nil {
		t.Fatal("want error for no communities")
	}
	// Churn ops need two distinct families per community: a one-family
	// community must be rejected after setup, not panic a worker.
	sc = testScenario()
	sc.Communities = append(sc.Communities, CommunitySpec{ID: "solo", Spec: "empty:n=1"})
	if _, err := Run(sc, NewInProcDriver(service.New(service.Opts{})), Options{}); err == nil ||
		!strings.Contains(err.Error(), "solo") {
		t.Fatalf("want size error naming the one-family community, got %v", err)
	}
}
