package benchkit

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
)

// TestRunHTTPBinary drives the full stack over the binary protocol, both
// unbatched and batched, and checks the snapshot records the protocol so
// comparisons against JSON runs refuse to gate.
func TestRunHTTPBinary(t *testing.T) {
	reg := service.New(service.Opts{})
	srv := httptest.NewServer(service.NewHandler(service.HandlerOpts{Owner: reg}))
	defer srv.Close()

	d := NewHTTPDriver(srv.URL, 2)
	d.Proto = ProtoBinary
	snap, err := Run(testScenario(), d, Options{Seed: 3, Workers: 2, Rev: "test"})
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, snap, "http")
	if snap.Proto != ProtoBinary || snap.Batch != 0 {
		t.Fatalf("snapshot records proto %q batch %d, want %q and 0", snap.Proto, snap.Batch, ProtoBinary)
	}

	batched, err := Run(testScenario(), d, Options{Seed: 3, Workers: 2, Batch: 8, Rev: "test"})
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, batched, "http")
	if batched.Proto != ProtoBinary || batched.Batch != 8 {
		t.Fatalf("snapshot records proto %q batch %d, want %q and 8", batched.Proto, batched.Batch, ProtoBinary)
	}
	if got := reg.List(); len(got) != 0 {
		t.Errorf("binary driver left communities on the server after Close: %v", got)
	}

	// Mismatched runs must refuse to gate, not quietly compare.
	if cmp := Compare(snap, batched, 0.25); cmp.Pass || !strings.Contains(cmp.Mismatch, "batch") {
		t.Fatalf("batched vs unbatched comparison: %+v", cmp)
	}
	jsonSnap := *snap
	jsonSnap.Proto = ""
	if cmp := Compare(&jsonSnap, snap, 0.25); cmp.Pass || !strings.Contains(cmp.Mismatch, "protocol") {
		t.Fatalf("binary vs JSON comparison: %+v", cmp)
	}
}

// TestDoBatchMapsErrors: per-op failures inside a batch must land at their
// position while the rest of the batch is served.
func TestDoBatchMapsErrors(t *testing.T) {
	reg := service.New(service.Opts{})
	if _, err := reg.Create("c", 16, [][2]int{{0, 1}}, ""); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(service.HandlerOpts{Owner: reg}))
	defer srv.Close()

	d := NewHTTPDriver(srv.URL, 1)
	d.Proto = ProtoBinary
	d.ids = []string{"c"}

	ops := []Op{
		{Kind: OpWindow, Community: 0, From: 1, To: 4},
		{Kind: OpWindow, Community: 0, From: 9, To: 3}, // empty window → 400 in band
		{Kind: OpNext, Community: 0, U: 1, From: 1},
		{Kind: OpNext, Community: 0, U: 99, From: 1}, // unknown family → 404 in band
	}
	errs := make([]error, len(ops))
	if err := d.DoBatch(ops, errs); err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("valid ops errored: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "status 400") {
		t.Fatalf("empty window op: %v, want an in-band 400", errs[1])
	}
	if errs[3] == nil || !strings.Contains(errs[3].Error(), "status 404") {
		t.Fatalf("unknown family op: %v, want an in-band 404", errs[3])
	}
}

// noBatchDriver hides InProcDriver's DoBatch so the runner sees a Driver
// with no batch support.
type noBatchDriver struct{ d *InProcDriver }

func (n noBatchDriver) Name() string                                   { return n.d.Name() }
func (n noBatchDriver) Setup(sc *Scenario, seed uint64) ([]int, error) { return n.d.Setup(sc, seed) }
func (n noBatchDriver) Do(op Op) error                                 { return n.d.Do(op) }
func (n noBatchDriver) CacheStats() (int64, int64, error)              { return n.d.CacheStats() }
func (n noBatchDriver) Close() error                                   { return n.d.Close() }

// TestRunBatchNeedsBatchDriver: a batched run over a driver without batch
// support is a configuration error, not a silent fallback.
func TestRunBatchNeedsBatchDriver(t *testing.T) {
	_, err := Run(testScenario(), noBatchDriver{NewInProcDriver(service.New(service.Opts{}))}, Options{Batch: 4})
	if err == nil || !strings.Contains(err.Error(), "batch") {
		t.Fatalf("want a batch-support error, got %v", err)
	}
}
