package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/wire"
)

// churnBody renders a JSON churn batch from (op, u, v) triples.
func churnBody(ops [][3]any) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, op := range ops {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"op":%q,"u":%d,"v":%d}`, op[0], op[1], op[2])
	}
	sb.WriteByte(']')
	return sb.String()
}

// TestHTTPChurnBatchMatchesSingles: the JSON batch endpoint must answer
// per-edit exactly what the single-op endpoints answer for the same sequence
// — the HTTP-level face of the batch ≡ sequential guarantee — and the
// resulting schedules must agree.
func TestHTTPChurnBatchMatchesSingles(t *testing.T) {
	srv, do := newTestServer(t)
	do("POST", "/v1/communities", star9, http.StatusCreated, nil)
	do("POST", "/v1/communities", strings.Replace(star9, `"demo"`, `"twin"`, 1), http.StatusCreated, nil)

	ops := [][3]any{
		{"marry", 1, 2}, {"marry", 3, 4}, {"divorce", 0, 5},
		{"marry", 1, 2},                      // no-op: already married in-batch
		{"divorce", 1, 2}, {"divorce", 7, 8}, // second is a no-op
		{"marry", 5, 6}, {"marry", 2, 7},
	}
	var batch churnResponse
	do("POST", "/v1/communities/demo/churn", churnBody(ops), http.StatusOK, &batch)
	if len(batch.Results) != len(ops) || batch.Community != "demo" {
		t.Fatalf("batch response = %+v", batch)
	}

	applied, recolorings := 0, 0
	for i, op := range ops {
		var single map[string]bool
		if op[0] == "marry" {
			do("POST", "/v1/communities/twin/edges", fmt.Sprintf(`{"u":%d,"v":%d}`, op[1], op[2]), http.StatusOK, &single)
			single["removed"] = single["recolored"] // marry "applied" isn't reported; recolored implies applied
			if batch.Results[i].Recolored != single["recolored"] {
				t.Fatalf("edit %d %v: batch recolored=%v, single=%v", i, op, batch.Results[i].Recolored, single["recolored"])
			}
		} else {
			do("DELETE", fmt.Sprintf("/v1/communities/twin/edges?u=%d&v=%d", op[1], op[2]), "", http.StatusOK, &single)
			if batch.Results[i].Applied != single["removed"] || batch.Results[i].Recolored != single["recolored"] {
				t.Fatalf("edit %d %v: batch %+v, single %v", i, op, batch.Results[i], single)
			}
		}
		if batch.Results[i].Applied {
			applied++
		}
		if batch.Results[i].Recolored {
			recolorings++
		}
	}
	if batch.Applied != applied || batch.Recolorings != recolorings {
		t.Fatalf("batch totals applied=%d recolorings=%d, per-edit say %d and %d",
			batch.Applied, batch.Recolorings, applied, recolorings)
	}

	// Both communities must now serve identical schedules.
	s1, b1 := getRaw(t, srv, "/v1/communities/demo/window?from=1&to=64")
	s2, b2 := getRaw(t, srv, "/v1/communities/twin/window?from=1&to=64")
	if s1 != http.StatusOK || s2 != http.StatusOK {
		t.Fatalf("window statuses %d, %d", s1, s2)
	}
	if string(b1) != strings.Replace(string(b2), `"twin"`, `"demo"`, 1) {
		t.Fatalf("batched and single-op schedules diverged:\n %s\n %s", b1, b2)
	}
}

// TestHTTPChurnValidation: the JSON batch endpoint's whole-request failures.
func TestHTTPChurnValidation(t *testing.T) {
	reg := New(Opts{})
	if _, err := reg.Create("demo", 4, nil, ""); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(HandlerOpts{Owner: reg, MaxBinBatch: 2}))
	defer srv.Close()
	do := func(body string, wantStatus int) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/v1/communities/demo/churn", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("churn %q: status %d, want %d", body, resp.StatusCode, wantStatus)
		}
	}
	do(`not json`, http.StatusBadRequest)
	do(`{"op":"marry","u":0,"v":1}`, http.StatusBadRequest) // object, not array
	do(`[]`, http.StatusBadRequest)
	do(churnBody([][3]any{{"marry", 0, 1}, {"elope", 2, 3}}), http.StatusBadRequest)
	do(churnBody([][3]any{{"marry", 0, 99}}), http.StatusBadRequest)                                  // out of range
	do(churnBody([][3]any{{"marry", 0, 1}, {"marry", 1, 2}, {"marry", 2, 3}}), http.StatusBadRequest) // over cap
	// An invalid batch is all-or-nothing: the valid leading edit must not
	// have applied.
	if c, _ := reg.Get("demo"); c.Stats().Marriages != 0 {
		t.Fatal("a rejected batch applied its valid prefix")
	}
	do(churnBody([][3]any{{"marry", 0, 1}, {"divorce", 0, 1}}), http.StatusOK)
}

// TestBinaryChurnMatchesJSON is the differential proof for the binary churn
// endpoint: the same edit sequence posted as churn frames and as a JSON
// batch must report identical per-edit outcomes and leave twin communities
// serving identical schedules.
func TestBinaryChurnMatchesJSON(t *testing.T) {
	srv, do := newTestServer(t)
	do("POST", "/v1/communities", star9, http.StatusCreated, nil)
	do("POST", "/v1/communities", strings.Replace(star9, `"demo"`, `"twin"`, 1), http.StatusCreated, nil)

	ops := [][3]any{
		{"marry", 1, 2}, {"marry", 3, 4}, {"divorce", 0, 1},
		{"marry", 1, 2}, {"divorce", 5, 6}, {"marry", 2, 7},
	}
	var jsonResp churnResponse
	do("POST", "/v1/communities/twin/churn", churnBody(ops), http.StatusOK, &jsonResp)

	var frames []byte
	for _, op := range ops {
		kind := wire.ChurnInsert
		if op[0] == "divorce" {
			kind = wire.ChurnDelete
		}
		frames = wire.AppendChurnReq(frames, kind, "demo", op[1].(int), op[2].(int))
	}
	status, body, ct := binPost(t, srv, "/v1/bin/churn", frames)
	if status != http.StatusOK || ct != "application/octet-stream" {
		t.Fatalf("binary churn: status %d, content type %q", status, ct)
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
	if len(body) != 0 {
		t.Fatalf("%d stray bytes after the last response frame", len(body))
	}

	s1, b1 := getRaw(t, srv, "/v1/communities/demo/window?from=1&to=64")
	s2, b2 := getRaw(t, srv, "/v1/communities/twin/window?from=1&to=64")
	if s1 != http.StatusOK || s2 != http.StatusOK {
		t.Fatalf("window statuses %d, %d", s1, s2)
	}
	if string(b1) != strings.Replace(string(b2), `"twin"`, `"demo"`, 1) {
		t.Fatalf("binary and JSON churn schedules diverged:\n %s\n %s", b1, b2)
	}
}

// TestBinaryChurnGroupsAndErrors: a mixed batch touching two communities
// answers positionally, per-edit failures arrive as in-position Error
// frames with the JSON-equivalent status, and the valid edits still apply.
func TestBinaryChurnGroupsAndErrors(t *testing.T) {
	srv, do := newTestServer(t)
	do("POST", "/v1/communities", star9, http.StatusCreated, nil)
	do("POST", "/v1/communities", `{"id":"tri","families":3,"edges":[[0,1]]}`, http.StatusCreated, nil)

	req := wire.AppendChurnReq(nil, wire.ChurnInsert, "demo", 1, 2)
	req = wire.AppendChurnReq(req, wire.ChurnInsert, "tri", 1, 2)
	req = wire.AppendChurnReq(req, wire.ChurnInsert, "ghost", 0, 1) // 404 in position
	req = wire.AppendChurnReq(req, wire.ChurnDelete, "demo", 0, 3)
	req = wire.AppendChurnReq(req, wire.ChurnInsert, "tri", 0, 99) // 400 in position
	req = wire.AppendChurnReq(req, 9, "demo", 0, 1)                // bad op byte: 400 in position
	req = wire.AppendChurnReq(req, wire.ChurnDelete, "tri", 0, 1)

	status, body, _ := binPost(t, srv, "/v1/bin/churn", req)
	if status != http.StatusOK {
		t.Fatalf("batch status %d", status)
	}
	wantErr := map[int]int{2: http.StatusNotFound, 4: http.StatusBadRequest, 5: http.StatusBadRequest}
	wantApplied := map[int]bool{0: true, 1: true, 3: true, 6: true}
	for i := 0; i < 7; i++ {
		var f wire.Frame
		var err error
		f, body, err = wire.Split(body)
		if err != nil {
			t.Fatalf("response frame %d: %v", i, err)
		}
		if wantStatus, isErr := wantErr[i]; isErr {
			estatus, _, msg, err := f.ErrorResp()
			if err != nil || estatus != wantStatus {
				t.Fatalf("frame %d = %d %q (%v), want status %d", i, estatus, msg, err, wantStatus)
			}
			continue
		}
		applied, _, err := f.ChurnResp()
		if err != nil || applied != wantApplied[i] {
			t.Fatalf("frame %d: applied=%v (%v), want %v", i, applied, err, wantApplied[i])
		}
	}
	if len(body) != 0 {
		t.Fatalf("%d stray bytes after the last response frame", len(body))
	}

	// The grouped flushes really applied: demo gained {1,2} and lost {0,3};
	// tri gained {1,2} and lost its seed edge {0,1}.
	var stats Stats
	do("GET", "/v1/communities/demo", "", http.StatusOK, &stats)
	if stats.Marriages != 8 { // 8 spokes + 1 marry - 1 divorce
		t.Fatalf("demo has %d marriages, want 8", stats.Marriages)
	}
	do("GET", "/v1/communities/tri", "", http.StatusOK, &stats)
	if stats.Marriages != 1 {
		t.Fatalf("tri has %d marriages, want 1", stats.Marriages)
	}
}

// TestBinaryChurnProtocolViolations: framing problems fail the whole request,
// like the other binary endpoints.
func TestBinaryChurnProtocolViolations(t *testing.T) {
	reg := New(Opts{})
	if _, err := reg.Create("demo", 4, nil, ""); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(HandlerOpts{Owner: reg, MaxBinBatch: 2}))
	defer srv.Close()

	good := wire.AppendChurnReq(nil, wire.ChurnInsert, "demo", 0, 1)
	cases := []struct {
		name string
		body []byte
	}{
		{"empty batch", nil},
		{"garbage", []byte("not frames")},
		{"truncated", good[:len(good)-2]},
		{"wrong kind", wire.AppendWindowReq(nil, "demo", 1, 2)},
		{"over cap", wire.AppendChurnReq(wire.AppendChurnReq(append([]byte(nil), good...), wire.ChurnInsert, "demo", 1, 2), wire.ChurnInsert, "demo", 2, 3)},
	}
	for _, tc := range cases {
		status, body, ct := binPost(t, srv, "/v1/bin/churn", tc.body)
		if status != http.StatusBadRequest || ct != "application/json" {
			t.Fatalf("%s: status %d content type %q, want a JSON 400", tc.name, status, ct)
		}
		var e Error
		if err := json.Unmarshal(body, &e); err != nil || e.Code == "" || e.Message == "" {
			t.Fatalf("%s: body %q is not a {code, message} envelope (%v)", tc.name, body, err)
		}
	}
	if c, _ := reg.Get("demo"); c.Stats().Marriages != 0 {
		t.Fatal("a rejected batch applied edits")
	}
}

// TestCoalescedSingleOpEndpoints: with HandlerOpts.Churn set, the
// single-op marry/divorce endpoints route through the coalescer and answer
// exactly what the direct path answers — including validation failures,
// which fail fast without joining a batch.
func TestCoalescedSingleOpEndpoints(t *testing.T) {
	reg := New(Opts{})
	if _, err := reg.Create("demo", 9, [][2]int{{0, 1}}, ""); err != nil {
		t.Fatal(err)
	}
	co := NewCoalescer(4, 0)
	defer co.Close()
	srv := httptest.NewServer(NewHandler(HandlerOpts{Owner: reg, Churn: co}))
	defer srv.Close()

	post := func(path, body string, wantStatus int, out any) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("POST %s: status %d, want %d", path, resp.StatusCode, wantStatus)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
	}
	var marry map[string]bool
	post("/v1/communities/demo/edges", `{"u":1,"v":2}`, http.StatusOK, &marry)
	post("/v1/communities/demo/edges", `{"u":1,"v":2}`, http.StatusOK, &marry) // no-op re-marry
	post("/v1/communities/demo/edges", `{"u":1,"v":99}`, http.StatusBadRequest, nil)

	req, err := http.NewRequest("DELETE", srv.URL+"/v1/communities/demo/edges?u=1&v=2", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var div map[string]bool
	if err := json.NewDecoder(resp.Body).Decode(&div); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !div["removed"] {
		t.Fatalf("coalesced divorce: status %d, body %v", resp.StatusCode, div)
	}

	if c, _ := reg.Get("demo"); c.Stats().Marriages != 1 {
		t.Fatalf("marriages = %d, want the original edge only", c.Stats().Marriages)
	}
	if enq, _ := co.Stats(); enq != 3 { // two marries + one divorce; the 400 never enqueued
		t.Fatalf("coalescer accepted %d ops, want 3", enq)
	}
}
