package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/wire"
)

// polyRing6 creates a 6-cycle poly community: six scheduled relationships
// with mixed explicit demands plus a community default for churned edges.
const polyRing6 = `{"id":"ring","kind":"poly","families":6,` +
	`"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]],` +
	`"demands":[8,8,16,16,32,0],"default_demand":16}`

// TestHTTPPolyLifecycle drives a poly community end to end over the JSON
// API: create with per-edge demands, serve windows and next-happy answers
// over edge slots, churn with and without explicit demands, and report the
// poly stats block.
func TestHTTPPolyLifecycle(t *testing.T) {
	_, do := newTestServer(t)

	var created Stats
	do("POST", "/v1/communities", polyRing6, http.StatusCreated, &created)
	if created.Kind != KindPoly || created.Families != 6 || created.Marriages != 6 {
		t.Fatalf("created = %+v", created)
	}
	if created.Poly == nil {
		t.Fatal("poly stats block missing from create response")
	}
	if created.Poly.Edges != 6 || created.Poly.Layers < 1 {
		t.Fatalf("poly stats = %+v", created.Poly)
	}
	if !(created.Poly.MaxGapRatio > 0) || math.IsInf(created.Poly.MaxGapRatio, 0) {
		t.Fatalf("max gap ratio %v not finite positive", created.Poly.MaxGapRatio)
	}
	if created.Poly.MaxGapRatio > 1 {
		t.Fatalf("fresh create violates its own demands: max gap ratio %v", created.Poly.MaxGapRatio)
	}

	// The schedule's entities are edge slots: every served happy set must
	// stay within [0, edges), and each slot must fire within its demand.
	var win windowResponse
	do("GET", "/v1/communities/ring/window?from=1&to=64", "", http.StatusOK, &win)
	if len(win.Holidays) != 64 {
		t.Fatalf("window rows = %d", len(win.Holidays))
	}
	ring := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}
	last := make(map[int]int64)
	for _, row := range win.Holidays {
		touched := make(map[int]bool)
		for _, s := range row.Happy {
			if s < 0 || s >= 6 {
				t.Fatalf("holiday %d: slot %d out of range", row.Holiday, s)
			}
			// Each holiday's firing slots must form a matching.
			for _, v := range ring[s] {
				if touched[v] {
					t.Fatalf("holiday %d is not a matching: family %d twice in %v", row.Holiday, v, row.Happy)
				}
				touched[v] = true
			}
			last[s] = row.Holiday
		}
	}
	// Demand 8 edges (slots 0 and 1) must each have fired in the first 8
	// holidays and at least 8 times in 64.
	for _, s := range []int{0, 1} {
		if last[s] == 0 {
			t.Fatalf("demand-8 slot %d never fired in 64 holidays", s)
		}
	}

	var next nextResponse
	do("GET", "/v1/communities/ring/families/2/next?from=10", "", http.StatusOK, &next)
	if next.Next < 10 || next.Next > 10+32 {
		t.Fatalf("slot 2 (demand 16) next from 10 = %d", next.Next)
	}
	// Consistency with the window at that holiday.
	var at windowResponse
	do("GET", fmt.Sprintf("/v1/communities/ring/window?from=%d&to=%d", next.Next, next.Next), "", http.StatusOK, &at)
	found := false
	for _, v := range at.Holidays[0].Happy {
		if v == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("slot 2 not happy at its reported next holiday %d (%v)", next.Next, at.Holidays[0].Happy)
	}

	// Churn: a marry with an explicit demand, one with the default, a
	// divorce. For poly every applied edit invalidates the cache (the edge
	// slots themselves change), reflected in version ticks.
	var marry map[string]bool
	do("POST", "/v1/communities/ring/edges", `{"u":0,"v":3,"demand":8}`, http.StatusOK, &marry)
	do("POST", "/v1/communities/ring/edges", `{"u":1,"v":4}`, http.StatusOK, &marry)
	var div map[string]bool
	do("DELETE", "/v1/communities/ring/edges?u=5&v=0", "", http.StatusOK, &div)
	if !div["removed"] {
		t.Fatal("divorce of a live poly edge reported removed=false")
	}

	var stats Stats
	do("GET", "/v1/communities/ring", "", http.StatusOK, &stats)
	if stats.Marriages != 7 || stats.Poly == nil || stats.Poly.Edges != 7 {
		t.Fatalf("post-churn stats = %+v (poly %+v)", stats, stats.Poly)
	}
	if stats.Version != 3 {
		t.Fatalf("3 applied poly edits ticked version to %d, want 3", stats.Version)
	}
	if !(stats.Poly.MaxGapRatio > 0) || stats.Poly.MaxGapRatio > 1 {
		t.Fatalf("post-churn max gap ratio %v", stats.Poly.MaxGapRatio)
	}

	// Status reports the kind.
	var status statusResponse
	do("GET", "/v1/status", "", http.StatusOK, &status)
	found = false
	for _, st := range status.Communities {
		if st.ID == "ring" {
			found = true
			if st.Kind != KindPoly {
				t.Fatalf("status reports kind %q for a poly community", st.Kind)
			}
		}
	}
	if !found {
		t.Fatalf("status communities = %+v", status.Communities)
	}
}

// TestHTTPCreateKindErrors: the create endpoint's kind-dispatch failures
// must arrive as {code, message} envelopes, and nothing may be registered.
func TestHTTPCreateKindErrors(t *testing.T) {
	srv, do := newTestServer(t)

	check := func(body, wantFrag string) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/v1/communities", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("create %s: status %d, want 400", body, resp.StatusCode)
		}
		var e Error
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("create %s: body is not an envelope: %v", body, err)
		}
		if e.Code != CodeBadRequest || !strings.Contains(e.Message, wantFrag) {
			t.Fatalf("create %s: envelope {%s, %q}, want code %s mentioning %q",
				body, e.Code, e.Message, CodeBadRequest, wantFrag)
		}
	}
	// The satellite fix: an unknown kind is a 400 envelope naming the kind,
	// not a silent classic create or a 500.
	check(`{"id":"x","families":4,"kind":"throuple"}`, `"throuple"`)
	// Classic creates must reject poly-only fields rather than ignore them.
	check(`{"id":"x","families":4,"demands":[8]}`, "demand")
	// Demands must align with edges.
	check(`{"id":"x","families":4,"kind":"poly","edges":[[0,1]],"demands":[8,8]}`, "demands")
	// Unknown poly scheduler code.
	check(`{"id":"x","families":4,"kind":"poly","code":"morse"}`, "morse")

	do("GET", "/v1/communities/x", "", http.StatusNotFound, nil)
}

// TestHTTPPolyChurnErrors: the JSON batch endpoint's failure modes on a
// poly community — rejected batches are all-or-nothing against the edge
// set, per-edit demands ride the accepted ones.
func TestHTTPPolyChurnErrors(t *testing.T) {
	srv, do := newTestServer(t)
	do("POST", "/v1/communities", polyRing6, http.StatusCreated, nil)

	post := func(body string, wantStatus int, out any) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/v1/communities/ring/churn", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("churn %q: status %d, want %d", body, resp.StatusCode, wantStatus)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
	}
	post(`[{"op":"elope","u":0,"v":2}]`, http.StatusBadRequest, nil)
	post(`[{"op":"marry","u":0,"v":2},{"op":"marry","u":0,"v":99}]`, http.StatusBadRequest, nil)
	var stats Stats
	do("GET", "/v1/communities/ring", "", http.StatusOK, &stats)
	if stats.Poly == nil || stats.Poly.Edges != 6 {
		t.Fatalf("rejected poly batch changed the edge set: %+v", stats.Poly)
	}

	// A valid batch with a per-op demand applies and keeps demands met.
	var ok churnResponse
	post(`[{"op":"marry","u":0,"v":2,"demand":8},{"op":"divorce","u":3,"v":4},{"op":"divorce","u":3,"v":4}]`,
		http.StatusOK, &ok)
	if len(ok.Results) != 3 || !ok.Results[0].Applied || !ok.Results[1].Applied || ok.Results[2].Applied {
		t.Fatalf("batch results = %+v", ok.Results)
	}
	if ok.Applied != 2 {
		t.Fatalf("batch applied = %d, want 2", ok.Applied)
	}
	do("GET", "/v1/communities/ring", "", http.StatusOK, &stats)
	if stats.Poly.Edges != 6 || stats.Poly.MaxGapRatio > 1 {
		t.Fatalf("post-batch poly stats = %+v", stats.Poly)
	}
}

// TestBinaryChurnOnPoly: the binary churn endpoint against a poly community
// must answer per-edit exactly what the JSON batch answers on a twin
// (binary marries carry no demand, so the twin's JSON ops use the
// community default too), with in-position error frames for bad edits, and
// leave both twins serving byte-identical windows.
func TestBinaryChurnOnPoly(t *testing.T) {
	srv, do := newTestServer(t)
	do("POST", "/v1/communities", polyRing6, http.StatusCreated, nil)
	do("POST", "/v1/communities", strings.Replace(polyRing6, `"ring"`, `"twin"`, 1), http.StatusCreated, nil)

	ops := [][3]any{
		{"marry", 0, 2}, {"divorce", 1, 2}, {"marry", 1, 3},
		{"marry", 0, 2}, // no-op: married in-batch
		{"divorce", 4, 5},
	}
	var jsonResp churnResponse
	do("POST", "/v1/communities/twin/churn", churnBody(ops), http.StatusOK, &jsonResp)

	var frames []byte
	for _, op := range ops {
		kind := wire.ChurnInsert
		if op[0] == "divorce" {
			kind = wire.ChurnDelete
		}
		frames = wire.AppendChurnReq(frames, kind, "ring", op[1].(int), op[2].(int))
	}
	frames = wire.AppendChurnReq(frames, wire.ChurnInsert, "ring", 0, 99) // 400 in position
	status, body, _ := binPost(t, srv, "/v1/bin/churn", frames)
	if status != http.StatusOK {
		t.Fatalf("binary churn status %d", status)
	}
	for i := range ops {
		var f wire.Frame
		var err error
		f, body, err = wire.Split(body)
		if err != nil {
			t.Fatalf("response frame %d: %v", i, err)
		}
		applied, recolored, err := f.ChurnResp()
		if err != nil {
			t.Fatalf("response frame %d: %v", i, err)
		}
		if want := jsonResp.Results[i]; applied != want.Applied || recolored != want.Recolored {
			t.Fatalf("edit %d: binary (%v,%v), JSON %+v", i, applied, recolored, want)
		}
	}
	f, rest, err := wire.Split(body)
	if err != nil || len(rest) != 0 {
		t.Fatalf("trailing frame: %v (%d stray bytes)", err, len(rest))
	}
	estatus, _, _, err := f.ErrorResp()
	if err != nil || estatus != http.StatusBadRequest {
		t.Fatalf("out-of-range edit answered %d (%v), want an in-position 400 frame", estatus, err)
	}

	s1, b1 := getRaw(t, srv, "/v1/communities/ring/window?from=1&to=64")
	s2, b2 := getRaw(t, srv, "/v1/communities/twin/window?from=1&to=64")
	if s1 != http.StatusOK || s2 != http.StatusOK {
		t.Fatalf("window statuses %d, %d", s1, s2)
	}
	if string(b1) != strings.Replace(string(b2), `"twin"`, `"ring"`, 1) {
		t.Fatalf("binary and JSON poly churn schedules diverged:\n %s\n %s", b1, b2)
	}
}
