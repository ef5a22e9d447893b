package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/graph"
	"repro/internal/service"
)

// declared is the metric list of BENCHMARK.json.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.EndToEnd) == 0 || len(d.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json declares no metrics")
	}
	return d
}

// layersUsed is the set of layers each workload must emit spans for.
var layersUsed = map[string][]string{
	"poly-served":   {"client", "service", "poly", "http", "wire"},
	"durable-churn": {"client", "service", "core", "persist"},
}

// probesUsed lists the probe spans each workload must emit: the ones that
// move the handler's window walk and response encode out of http.
var probesUsed = map[string][]string{
	"poly-served": {"poly.window", "poly.window_rows", "wire.resp_encode"},
}

// TestWorkloadsToy runs every workload at toy size, untraced and traced,
// and checks the printed result against BENCHMARK.json and the spans
// against the layers the workload drives.
func TestWorkloadsToy(t *testing.T) {
	d := readDeclared(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.csv")
				var stdout, stderr bytes.Buffer
				code := runOptions(options{workload: w, seed: 3, seconds: 0.3, trace: trace, toy: true, spans: spans}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				want := d.EndToEnd
				if trace {
					want = d.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					case got.Unit != m.Unit:
						t.Errorf("metric %s in %q, declared %q", m.Name, got.Unit, m.Unit)
					}
				}
				if !trace {
					for _, name := range []string{"throughput_ops_s", "setup_s", "recover_s", "happy_share", "max_gap_ratio"} {
						if v := res.Metrics[name].Value; !(v > 0) {
							t.Errorf("%s = %v, want > 0", name, v)
						}
					}
					return
				}
				seen, names := spanLayers(t, spans)
				for _, l := range layersUsed[w] {
					if seen[l] == 0 {
						t.Errorf("no %s span in the trace (saw %v)", l, seen)
					}
				}
				for _, n := range probesUsed[w] {
					if names[n] == 0 {
						t.Errorf("no %s probe in the trace (saw %v)", n, names)
					}
				}
			})
		}
	}
}

// spanLayers counts the spans of each layer, and of each name, in a spans
// file.
func spanLayers(t *testing.T, file string) (layers, names map[string]int) {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	layers, names = map[string]int{}, map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Scan() // header
	for sc.Scan() {
		fields := strings.Split(sc.Text(), ",")
		if len(fields) != 9 {
			t.Fatalf("span line %q", sc.Text())
		}
		layers[fields[4]]++
		names[fields[3]]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return layers, names
}

// served returns a community's exported state and the rows it serves for
// [from, to].
func served(t *testing.T, c *service.Community, from, to int64) (service.CommunityState, [][]int) {
	t.Helper()
	rows, err := c.Window(from, to)
	if err != nil {
		t.Fatal(err)
	}
	happy := make([][]int, len(rows))
	for i, r := range rows {
		happy[i] = r.Happy
	}
	return c.Export(), happy
}

func audit(st service.CommunityState, from int64, happy [][]int) *auditor {
	a, err := newAuditor(st, from, from+int64(len(happy))-1)
	if err != nil {
		panic(err)
	}
	for i, h := range happy {
		a.visit(from+int64(i), h)
	}
	a.finish()
	return a
}

// TestAuditCatchesCorruptAnswers feeds the auditor real answers, then the
// same answers deliberately corrupted.
func TestAuditCatchesCorruptAnswers(t *testing.T) {
	g, err := graph.ParseSpec("gnp:n=60,p=0.1", 9)
	if err != nil {
		t.Fatal(err)
	}
	reg := service.New(service.Opts{})
	c, err := reg.CreateFromGraph("c", g, "")
	if err != nil {
		t.Fatal(err)
	}
	st, happy := served(t, c, 100, 100+511)
	if a := audit(st, 100, happy); len(a.violations) != 0 || a.maxRatio != 1 {
		t.Fatalf("clean answers: violations %v, max gap ratio %v", a.violations, a.maxRatio)
	}

	// A married couple both happy breaks independence.
	e := st.Edges[0]
	bad := cloneRows(happy)
	bad[3] = append(bad[3], e[0], e[1])
	if a := audit(st, 100, bad); len(a.violations) == 0 {
		t.Error("married couple both happy was not caught")
	}
	// Removing a family from every holiday breaks its wait bound.
	v := happy[0][0]
	bad = cloneRows(happy)
	for i := range bad {
		bad[i] = remove(bad[i], v)
	}
	if a := audit(st, 100, bad); len(a.violations) == 0 {
		t.Error("family never happy was not caught")
	}

	// A recovered state that differs is caught.
	other := c.Export()
	other.Coloring[0]++
	if sameState(st, other) {
		t.Error("differing recovered coloring was not caught")
	}
	if !sameState(st, c.Export()) {
		t.Error("identical state reported different")
	}
}

// TestAuditCatchesCorruptPoly does the same for a poly community, and for
// a binary answer that disagrees with the JSON one.
func TestAuditCatchesCorruptPoly(t *testing.T) {
	reg := service.New(service.Opts{})
	c, err := reg.CreateSpec(service.CreateSpec{
		ID: "p", Families: 6, Kind: service.KindPoly, DefaultDemand: 8,
		Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, happy := served(t, c, 1, 64)
	if a := audit(st, 1, happy); len(a.violations) != 0 || a.maxRatio != 1 {
		t.Fatalf("clean answers: violations %v, max gap ratio %v", a.violations, a.maxRatio)
	}
	// Two edges sharing family 0 on one holiday are not a matching.
	bad := cloneRows(happy)
	bad[0] = append(bad[0], slotOf(st, 0, 1), slotOf(st, 5, 0))
	if a := audit(st, 1, bad); len(a.violations) == 0 {
		t.Error("non-matching happy set was not caught")
	}

	sched, err := c.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	op := benchkit.Op{Kind: benchkit.OpWindow, From: 1, To: 8}
	var good answer
	sched.Window(1, 8, func(_ int64, h []int) { good.happy = append(good.happy, append([]int(nil), h...)) })
	if err := compareAnswers(op, good, good, sched); err != nil {
		t.Fatalf("agreeing answers: %v", err)
	}
	corrupt := answer{happy: cloneRows(good.happy)}
	corrupt.happy[2] = append(corrupt.happy[2], 99)
	if err := compareAnswers(op, corrupt, good, sched); err == nil {
		t.Error("binary answer disagreeing with JSON was not caught")
	}
	next := benchkit.Op{Kind: benchkit.OpNext, U: 0, From: 5}
	right := answer{next: sched.NextHappy(0, 5)}
	if err := compareAnswers(next, answer{next: right.next + 1}, right, sched); err == nil {
		t.Error("wrong next answer was not caught")
	}
}

func slotOf(st service.CommunityState, u, v int) int {
	for _, e := range st.Poly.Edges {
		if (e.U == u && e.V == v) || (e.U == v && e.V == u) {
			return e.Slot
		}
	}
	panic("no such edge")
}

func cloneRows(rows [][]int) [][]int {
	out := make([][]int, len(rows))
	for i, r := range rows {
		out[i] = append([]int(nil), r...)
	}
	return out
}

func remove(xs []int, v int) []int {
	var out []int
	for _, x := range xs {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// TestTailPercentile checks the exact percentiles and the fall-back to the
// highest percentile with ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	var s samples
	for i := 1; i <= 2000; i++ {
		s = append(s, int64(i))
	}
	if q := s.sorted().tail(0.99); q.Value != 1980 || q.Beyond != 20 || q.Q != 0.99 {
		t.Errorf("p99 of 1..2000 = %+v", q)
	}
	s = s[:500]
	q := s.sorted().tail(0.99)
	if q.Beyond != minBeyond || q.Value != 490 {
		t.Errorf("tail of 1..500 = %+v, want 10 samples beyond 490", q)
	}
	if q := s.sorted().at(0.5); q.Value != 250 {
		t.Errorf("p50 of 1..500 = %+v", q)
	}
}
