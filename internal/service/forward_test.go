package service

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
)

// clusterNode is one in-process daemon for forwarding tests: a real
// listener (the router must know final addresses before handlers exist).
type clusterNode struct {
	id    string
	owner *Owner
	url   string
}

// startCluster boots n HTTP nodes sharing one topology.
func startCluster(t *testing.T, n int) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	nodes := make([]Node, n)
	cns := make([]*clusterNode, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		id := fmt.Sprintf("n%d", i)
		nodes[i] = Node{ID: id, Addr: "http://" + ln.Addr().String()}
		cns[i] = &clusterNode{id: id, owner: New(Opts{}), url: nodes[i].Addr}
	}
	for i, cn := range cns {
		rt, err := NewRouter(RouterOpts{Self: cn.id, Nodes: nodes})
		if err != nil {
			t.Fatalf("NewRouter: %v", err)
		}
		srv := &http.Server{Handler: NewHandler(HandlerOpts{Owner: cn.owner, Router: rt, Node: cn.id})}
		go srv.Serve(lns[i])
		t.Cleanup(func() { srv.Close() })
	}
	return cns
}

// pickPlacement returns a community id placed on want according to a
// client-side router over the same nodes.
func pickPlacement(t *testing.T, cns []*clusterNode, want string) string {
	t.Helper()
	nodes := make([]Node, len(cns))
	for i, cn := range cns {
		nodes[i] = Node{ID: cn.id, Addr: cn.url}
	}
	rt, err := NewRouter(RouterOpts{Nodes: nodes})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("comm-%d", i)
		if rt.Place(id) == want {
			return id
		}
	}
	t.Fatalf("no community hashes to %s", want)
	return ""
}

// TestForwardMisroutedWrite: a create sent to the wrong node lands on the
// placed owner via one server-side forward hop.
func TestForwardMisroutedWrite(t *testing.T) {
	cns := startCluster(t, 2)
	id := pickPlacement(t, cns, cns[1].id)

	body := fmt.Sprintf(`{"id":%q,"families":4}`, id)
	resp, err := http.Post(cns[0].url+"/v1/communities", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create via wrong node: status %d", resp.StatusCode)
	}
	if _, ok := cns[1].owner.Get(id); !ok {
		t.Fatal("community did not land on its placed owner")
	}
	if _, ok := cns[0].owner.Get(id); ok {
		t.Fatal("community also created on the forwarding node")
	}

	// Reads for a community absent locally forward too.
	wresp, err := http.Get(cns[0].url + "/v1/communities/" + id + "/window?from=1&to=10")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer wresp.Body.Close()
	if wresp.StatusCode != http.StatusOK {
		t.Fatalf("window via wrong node: status %d", wresp.StatusCode)
	}
}

// TestForwardLoopGuard: an already-forwarded request that is still
// misplaced answers 421 not_owner instead of hopping again.
func TestForwardLoopGuard(t *testing.T) {
	cns := startCluster(t, 2)
	id := pickPlacement(t, cns, cns[1].id)

	req, _ := http.NewRequest("POST", cns[0].url+"/v1/communities/"+id+"/families", nil)
	req.Header.Set(forwardHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("status = %d, want 421", resp.StatusCode)
	}
	var e Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if e.Code != CodeNotOwner {
		t.Fatalf("code = %s, want not_owner", e.Code)
	}
}

// TestStatusEndpoint: /v1/status reports role and placement per community.
func TestStatusEndpoint(t *testing.T) {
	cns := startCluster(t, 2)
	id := pickPlacement(t, cns, cns[0].id)
	if _, err := cns[0].owner.Create(id, 3, nil, ""); err != nil {
		t.Fatalf("create: %v", err)
	}
	resp, err := http.Get(cns[0].url + "/v1/status")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	var st struct {
		Node        string `json:"node"`
		Nodes       []Node `json:"nodes"`
		Communities []struct {
			ID     string `json:"id"`
			Role   string `json:"role"`
			Placed string `json:"placed"`
		} `json:"communities"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if st.Node != cns[0].id || len(st.Nodes) != 2 {
		t.Fatalf("status header wrong: %+v", st)
	}
	if len(st.Communities) != 1 || st.Communities[0].Role != "owner" || st.Communities[0].Placed != cns[0].id {
		t.Fatalf("community status wrong: %+v", st.Communities)
	}
}

// TestPromoteEndpoint: /v1/promote unfences a replica and pins placement.
func TestPromoteEndpoint(t *testing.T) {
	cns := startCluster(t, 2)
	id := pickPlacement(t, cns, cns[1].id)
	// Hand node 0 a fenced replica of a community placed on node 1.
	c, err := cns[0].owner.Create(id, 3, nil, "")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	cns[0].owner.Fence(id)
	if _, err := c.Marry(0, 1); err == nil {
		t.Fatal("fenced replica accepted a write")
	}

	resp, err := http.Post(cns[0].url+"/v1/promote", "application/json",
		strings.NewReader(fmt.Sprintf(`{"community":%q}`, id)))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}
	if c.Fenced() {
		t.Fatal("community still fenced after promotion")
	}
	if _, err := c.Marry(0, 1); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	// And the promoting node now owns it for routing purposes.
	wresp, err := http.Post(cns[0].url+"/v1/communities/"+id+"/families", "application/json", nil)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusOK && wresp.StatusCode != http.StatusCreated {
		t.Fatalf("write via promoted node: status %d", wresp.StatusCode)
	}
}
