package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// newTestServer returns a handler over a fresh registry plus a helper that
// performs a request and decodes the JSON response into out.
func newTestServer(t *testing.T) (*httptest.Server, func(method, path, body string, wantStatus int, out any)) {
	t.Helper()
	srv := httptest.NewServer(NewHandler(HandlerOpts{Owner: New(Opts{})}))
	t.Cleanup(srv.Close)
	do := func(method, path, body string, wantStatus int, out any) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			var raw map[string]any
			_ = json.NewDecoder(resp.Body).Decode(&raw)
			t.Fatalf("%s %s: status %d, want %d (body %v)", method, path, resp.StatusCode, wantStatus, raw)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("%s %s: bad JSON: %v", method, path, err)
			}
		}
	}
	return srv, do
}

// star9 is the create body for a 9-family star (center 0), the paper's
// running example shape.
const star9 = `{"id":"demo","families":9,"edges":[[0,1],[0,2],[0,3],[0,4],[0,5],[0,6],[0,7],[0,8]]}`

func TestHTTPLifecycleAndWindow(t *testing.T) {
	_, do := newTestServer(t)

	var created Stats
	do("POST", "/v1/communities", star9, http.StatusCreated, &created)
	if created.ID != "demo" || created.Families != 9 || created.Marriages != 8 {
		t.Fatalf("created = %+v", created)
	}
	do("POST", "/v1/communities", star9, http.StatusBadRequest, nil) // duplicate

	var listed struct {
		Communities []string `json:"communities"`
	}
	do("GET", "/v1/communities", "", http.StatusOK, &listed)
	if len(listed.Communities) != 1 || listed.Communities[0] != "demo" {
		t.Fatalf("list = %v", listed.Communities)
	}

	var win windowResponse
	do("GET", "/v1/communities/demo/window?from=1&to=52", "", http.StatusOK, &win)
	if win.From != 1 || win.To != 52 || len(win.Holidays) != 52 {
		t.Fatalf("window = %+v", win)
	}
	// The leaves (color 1, omega codeword "0") host every other holiday;
	// the center hosts on its own residue. Every row's happy set must be
	// non-adjacent, i.e. never the center together with a leaf.
	for _, row := range win.Holidays {
		hasCenter, hasLeaf := false, false
		for _, v := range row.Happy {
			if v == 0 {
				hasCenter = true
			} else {
				hasLeaf = true
			}
		}
		if hasCenter && hasLeaf {
			t.Fatalf("holiday %d: center and leaf both happy: %v", row.Holiday, row.Happy)
		}
	}

	var next nextResponse
	do("GET", "/v1/communities/demo/families/3/next?from=10", "", http.StatusOK, &next)
	if next.Next < 10 {
		t.Fatalf("next = %+v", next)
	}
	// The answer must be consistent with the window at that holiday.
	var at windowResponse
	do("GET", fmt.Sprintf("/v1/communities/demo/window?from=%d&to=%d", next.Next, next.Next), "", http.StatusOK, &at)
	found := false
	for _, v := range at.Holidays[0].Happy {
		if v == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("family 3 not happy at reported next holiday %d (%v)", next.Next, at.Holidays[0].Happy)
	}

	var stats Stats
	do("GET", "/v1/communities/demo", "", http.StatusOK, &stats)
	if stats.CacheMisses != 1 || stats.CacheHits < 2 {
		t.Fatalf("stats after cached queries = %+v", stats)
	}

	do("DELETE", "/v1/communities/demo", "", http.StatusOK, nil)
	do("GET", "/v1/communities/demo", "", http.StatusNotFound, nil)
}

func TestHTTPChurn(t *testing.T) {
	_, do := newTestServer(t)
	do("POST", "/v1/communities", `{"id":"c","families":4,"edges":[[0,1],[1,2]]}`, http.StatusCreated, nil)

	var marry struct {
		Recolored bool `json:"recolored"`
	}
	do("POST", "/v1/communities/c/edges", `{"u":2,"v":3}`, http.StatusOK, &marry)
	if !marry.Recolored {
		t.Fatal("marrying same-colored families should recolor")
	}
	var divorce struct {
		Removed   bool `json:"removed"`
		Recolored bool `json:"recolored"`
	}
	do("DELETE", "/v1/communities/c/edges?u=2&v=3", "", http.StatusOK, &divorce)
	if !divorce.Removed {
		t.Fatal("edge should have been removed")
	}
	var fam struct {
		Family int `json:"family"`
	}
	do("POST", "/v1/communities/c/families", "", http.StatusCreated, &fam)
	if fam.Family != 4 {
		t.Fatalf("new family id = %d, want 4", fam.Family)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, do := newTestServer(t)
	do("POST", "/v1/communities", `{"id":"c","families":4}`, http.StatusCreated, nil)

	do("GET", "/v1/communities/nope/window", "", http.StatusNotFound, nil)
	do("GET", "/v1/communities/c/window?from=0&to=5", "", http.StatusBadRequest, nil)
	do("GET", "/v1/communities/c/window?from=9&to=3", "", http.StatusBadRequest, nil)
	do("GET", fmt.Sprintf("/v1/communities/c/window?from=1&to=%d", MaxWindow+2), "", http.StatusBadRequest, nil)
	// Near-MaxInt64 bounds pass the span check but must be rejected before
	// the closed-form arithmetic can wrap.
	do("GET", "/v1/communities/c/window?from=9223372036854775800&to=9223372036854775807", "", http.StatusBadRequest, nil)
	do("GET", "/v1/communities/c/window?from=x&to=5", "", http.StatusBadRequest, nil)
	do("GET", "/v1/communities/c/families/99/next", "", http.StatusNotFound, nil)
	do("GET", "/v1/communities/c/families/x/next", "", http.StatusBadRequest, nil)
	do("POST", "/v1/communities/c/edges", `{"u":0,"v":0}`, http.StatusBadRequest, nil)
	do("POST", "/v1/communities/c/edges", `not json`, http.StatusBadRequest, nil)
	do("DELETE", "/v1/communities/c/edges?u=a&v=1", "", http.StatusBadRequest, nil)
	do("POST", "/v1/communities", `{"id":"bad","families":3,"code":"morse"}`, http.StatusBadRequest, nil)
	do("DELETE", "/v1/communities/nope", "", http.StatusNotFound, nil)
	do("GET", "/healthz", "", http.StatusOK, nil)
}

// TestHTTPConcurrentWindows serves parallel window queries against one
// cached schedule — with -race this pins the serving path race-clean.
func TestHTTPConcurrentWindows(t *testing.T) {
	srv, do := newTestServer(t)
	do("POST", "/v1/communities", star9, http.StatusCreated, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				from := 1 + (i*13+w)%300
				resp, err := srv.Client().Get(fmt.Sprintf("%s/v1/communities/demo/window?from=%d&to=%d", srv.URL, from, from+20))
				if err != nil {
					t.Error(err)
					return
				}
				var win windowResponse
				err = json.NewDecoder(resp.Body).Decode(&win)
				resp.Body.Close()
				if err != nil || len(win.Holidays) != 21 {
					t.Errorf("bad window response: %v (%d rows)", err, len(win.Holidays))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var stats Stats
	do("GET", "/v1/communities/demo", "", http.StatusOK, &stats)
	if stats.CacheMisses != 1 {
		t.Fatalf("concurrent cached queries froze %d schedules, want 1", stats.CacheMisses)
	}
}
