package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/wire"
)

// HandlerOpts configures NewHandler. Owner is the only required field; the
// zero values of the rest give a standalone single-node handler.
type HandlerOpts struct {
	// Owner is the node's community store (required).
	Owner *Owner

	// Router, when set, makes the handler cluster-aware: writes for
	// communities placed on other nodes are forwarded to their owner once
	// (421 not_owner if a forwarded request is still misplaced — stale
	// topologies must not loop), and reads for communities absent locally
	// are forwarded instead of answering 404.
	Router *Router

	// Node is this node's id, reported by /v1/status and stamped on
	// forwarded requests. Defaults to Router.Self when a router is set.
	Node string

	// MaxBinBatch caps the frames one /v1/bin request body may carry (and
	// the edits one JSON churn batch may carry); 0 means DefaultMaxBinBatch.
	// Batches beyond the cap fail with 400 before any query is served.
	MaxBinBatch int

	// Churn, when set, routes the single-op churn endpoints (marry and
	// divorce) through the coalescer, so independent concurrent writers
	// share write-lock acquisitions and journal group-commits. The batch
	// churn endpoints amortize within each request themselves and never
	// consult it.
	Churn *Coalescer

	// Lag, when set, reports per-community replication lag (owner seq minus
	// locally applied seq) for communities this node follows; surfaced by
	// /v1/status.
	Lag func() map[string]uint64

	// Handoff, when set, serves POST /v1/handoff: stream the named community
	// to the node the offered table assigns it to, install the table, and
	// report the cut sequence and write-pause the move cost. Daemons wire it
	// to cluster.Handoff; without it the endpoint answers 501.
	Handoff func(community string, table Placement) (cutSeq uint64, pause time.Duration, err error)
}

// DefaultMaxBinBatch is the frames-per-request cap of the binary endpoints
// when HandlerOpts does not override it.
const DefaultMaxBinBatch = 1024

// forwardHeader marks a request as having been routed once. A node
// receiving a marked request it still does not own answers 421 not_owner
// rather than forwarding again, so disagreeing topologies degrade to an
// error instead of a forwarding loop.
const forwardHeader = "X-Holiday-Forwarded"

// epochHeader carries the sender's placement epoch on forwarded requests
// and on epoch-refusal responses. A node receiving a write stamped with a
// newer epoch than its own table knows its placement is stale — serving
// could double-own a community it has already lost — so it answers 421
// not_owner and lets the placement gossip catch it up.
const epochHeader = "X-Holiday-Epoch"

// NewHandler exposes an owner — and, with a Router, its cluster — over
// HTTP. Every route except /healthz lives under /v1/:
//
//	POST   /v1/communities                          create {id, families, edges, code}
//	GET    /v1/communities                          list ids
//	GET    /v1/communities/{id}                     stats
//	DELETE /v1/communities/{id}                     unregister
//	POST   /v1/communities/{id}/families            append a family → {family}
//	POST   /v1/communities/{id}/edges               marry {u, v} → {recolored}
//	DELETE /v1/communities/{id}/edges?u=U&v=V       divorce → {removed, recolored}
//	POST   /v1/communities/{id}/churn               batched churn [{op, u, v}, ...]
//	GET    /v1/communities/{id}/window?from=F&to=T  schedule window
//	GET    /v1/communities/{id}/families/{v}/next?from=F  next happy holiday
//	GET    /v1/status                               node role, epoch, per-community seq
//	GET    /v1/placement                            the installed placement table
//	POST   /v1/placement                            offer a table; installed iff it supersedes
//	POST   /v1/handoff                              stream a community to its new owner {community, table}
//	POST   /v1/promote                              take ownership of a community {community}
//	POST   /v1/bin/window                           batched binary windows
//	POST   /v1/bin/next                             batched binary next queries
//	POST   /v1/bin/churn                            batched binary churn
//	GET    /healthz                                 liveness
//
// Window and next queries answer from the community's cached frozen
// schedule; churn endpoints route through the §6 dynamic recoloring. The
// /v1/bin endpoint family speaks the internal/wire binary format (DESIGN.md
// §9): the request body is a batch of length-prefixed frames, the response
// the matching frames in order, and window answers are word-packed happy
// bitmaps emitted straight from the closed-form periodic schedules.
//
// Every failure, JSON or binary, carries the {code, message} envelope (see
// ErrCode). With a Router, JSON writes are forwarded to the placed owner;
// binary frames are never forwarded — a misplaced frame answers an
// in-position not_owner Error and the client re-routes.
func NewHandler(h HandlerOpts) http.Handler {
	if h.Owner == nil {
		panic("service: NewHandler requires an Owner")
	}
	if h.MaxBinBatch < 1 {
		h.MaxBinBatch = DefaultMaxBinBatch
	}
	if h.Node == "" && h.Router != nil {
		h.Node = h.Router.Self()
	}
	a := &apiHandler{HandlerOpts: h, client: &http.Client{}}
	if h.Router != nil {
		// Every installed table reconciles local fences: communities the
		// table moved elsewhere stop taking writes, and explicit assignments
		// to this node promote their fenced replicas. Ring-derived placement
		// never auto-promotes — only an explicit assignment (published by a
		// handoff, failover election, or promote) lifts a fence.
		h.Router.OnChange(func(Placement) { syncFences(h.Owner, h.Router) })
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/bin/window", a.binHandler(wire.KindWindowReq))
	mux.HandleFunc("POST /v1/bin/next", a.binHandler(wire.KindNextReq))
	mux.HandleFunc("POST /v1/bin/churn", a.churnBinHandler())
	mux.HandleFunc("GET /v1/status", a.serveStatus)
	mux.HandleFunc("GET /v1/placement", a.servePlacementGet)
	mux.HandleFunc("POST /v1/placement", a.servePlacementSet)
	mux.HandleFunc("POST /v1/handoff", a.serveHandoff)
	mux.HandleFunc("POST /v1/promote", a.servePromote)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /v1/communities", a.serveCreate)
	mux.HandleFunc("GET /v1/communities", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]string{"communities": a.Owner.List()})
	})
	mux.HandleFunc("GET /v1/communities/{id}", a.read(func(w http.ResponseWriter, r *http.Request, c *Community) {
		writeJSON(w, http.StatusOK, c.Stats())
	}))
	mux.HandleFunc("DELETE /v1/communities/{id}", a.write(a.serveDelete))
	mux.HandleFunc("POST /v1/communities/{id}/families", a.write(a.withCommunity(a.serveAddFamily)))
	mux.HandleFunc("POST /v1/communities/{id}/edges", a.write(a.withCommunity(a.serveMarry)))
	mux.HandleFunc("DELETE /v1/communities/{id}/edges", a.write(a.withCommunity(a.serveDivorce)))
	mux.HandleFunc("POST /v1/communities/{id}/churn", a.write(a.withCommunity(a.serveChurn)))
	mux.HandleFunc("GET /v1/communities/{id}/window", a.read(a.serveWindow))
	mux.HandleFunc("GET /v1/communities/{id}/families/{v}/next", a.read(a.serveNext))
	return mux
}

// apiHandler carries the handler configuration and the forwarding client.
type apiHandler struct {
	HandlerOpts
	client *http.Client
}

// misplaced reports whether a request for community id must not be served
// locally, and if so answers it (forwarding once, then failing closed with
// 421 not_owner). Reads pass present=true when the community exists locally
// — replicas serve reads regardless of placement.
func (a *apiHandler) misplaced(w http.ResponseWriter, r *http.Request, id string, present bool) bool {
	if a.Router == nil || present {
		return false
	}
	node := a.Router.Place(id)
	if node == a.Router.Self() {
		return false
	}
	if r.Header.Get(forwardHeader) != "" {
		writeError(w, http.StatusMisdirectedRequest,
			Errf(CodeNotOwner, "community %q is owned by node %q, not %q", id, node, a.Node))
		return true
	}
	a.forward(w, r, node, nil)
	return true
}

// forward proxies the request to a peer node, stamping the loop guard. body
// replaces r.Body when the handler already consumed it.
func (a *apiHandler) forward(w http.ResponseWriter, r *http.Request, node string, body []byte) {
	addr, ok := a.Router.Addr(node)
	if !ok {
		writeError(w, http.StatusServiceUnavailable,
			Errf(CodeUnavailable, "owner node %q has no address in the topology", node))
		return
	}
	var rd io.Reader = r.Body
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, addr+r.URL.RequestURI(), rd)
	if err != nil {
		writeError(w, http.StatusInternalServerError, Errf(CodeInternal, "forward to %q: %v", node, err))
		return
	}
	req.Header = r.Header.Clone()
	req.Header.Set(forwardHeader, a.Node)
	req.Header.Set(epochHeader, strconv.FormatUint(a.Router.Epoch(), 10))
	resp, err := a.client.Do(req)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, Errf(CodeUnavailable, "forward to %q: %v", node, err))
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// staleEpoch answers a write stamped with a placement epoch newer than
// this node's table: the sender provably holds a table this node has not
// seen, so serving could take a write for a community this node already
// lost. 421 not_owner, carrying the local epoch for diagnostics; the
// placement gossip closes the gap.
func (a *apiHandler) staleEpoch(w http.ResponseWriter, r *http.Request) bool {
	if a.Router == nil {
		return false
	}
	he := r.Header.Get(epochHeader)
	if he == "" {
		return false
	}
	remote, err := strconv.ParseUint(he, 10, 64)
	local := a.Router.Epoch()
	if err != nil || remote <= local {
		return false
	}
	w.Header().Set(epochHeader, strconv.FormatUint(local, 10))
	writeError(w, http.StatusMisdirectedRequest, Errf(CodeNotOwner,
		"node %q placement epoch %d is stale; request carries epoch %d", a.Node, local, remote))
	return true
}

// write wraps a mutating {id} endpoint with placement routing: misplaced
// requests are forwarded to the owner, local ones proceed (and fencing
// inside Owner backstops any disagreement).
func (a *apiHandler) write(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if a.staleEpoch(w, r) {
			return
		}
		if a.misplaced(w, r, r.PathValue("id"), false) {
			return
		}
		fn(w, r)
	}
}

// read wraps a read-only {id} endpoint: a community present locally serves
// (replicas included); an absent one placed elsewhere forwards.
func (a *apiHandler) read(fn func(http.ResponseWriter, *http.Request, *Community)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		c, ok := a.Owner.Get(id)
		if !ok {
			if a.misplaced(w, r, id, false) {
				return
			}
			writeError(w, http.StatusNotFound, Errf(CodeNotFound, "no community %q", id))
			return
		}
		fn(w, r, c)
	}
}

// withCommunity resolves {id} locally or responds 404 — for write endpoints
// whose routing the write wrapper already settled.
func (a *apiHandler) withCommunity(fn func(http.ResponseWriter, *http.Request, *Community)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c, ok := a.Owner.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, Errf(CodeNotFound, "no community %q", r.PathValue("id")))
			return
		}
		fn(w, r, c)
	}
}

func (a *apiHandler) serveCreate(w http.ResponseWriter, r *http.Request) {
	// The community id decides placement and lives in the body, so buffer it
	// before deciding whether this create is ours to serve.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, wire.MaxFrame))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read request body: %w", err))
		return
	}
	var req createRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
		return
	}
	if a.staleEpoch(w, r) {
		return
	}
	if a.Router != nil && !a.Router.IsLocal(req.ID) {
		node := a.Router.Place(req.ID)
		if r.Header.Get(forwardHeader) != "" {
			writeError(w, http.StatusMisdirectedRequest,
				Errf(CodeNotOwner, "community %q is owned by node %q, not %q", req.ID, node, a.Node))
			return
		}
		a.forward(w, r, node, body)
		return
	}
	c, err := a.Owner.CreateSpec(CreateSpec{
		ID: req.ID, Families: req.Families, Edges: req.Edges, Code: req.Code,
		Kind: req.Kind, Demands: req.Demands, DefaultDemand: req.DefaultDemand,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, c.Stats())
}

func (a *apiHandler) serveDelete(w http.ResponseWriter, r *http.Request) {
	ok, err := a.Owner.Delete(r.PathValue("id"))
	if err != nil {
		// A journal failure means the deletion is not durable; the community
		// stays registered and the client must not believe it gone.
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, Errf(CodeNotFound, "no community %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": r.PathValue("id")})
}

func (a *apiHandler) serveAddFamily(w http.ResponseWriter, r *http.Request, c *Community) {
	fam, err := c.AddFamily()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int{"family": fam})
}

func (a *apiHandler) serveMarry(w http.ResponseWriter, r *http.Request, c *Community) {
	var req edgeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
		return
	}
	var recolored bool
	var err error
	if a.Churn != nil {
		var res core.EditResult
		res, err = a.Churn.Churn(c, core.Edit{Op: core.EditInsert, U: req.U, V: req.V, Demand: req.Demand})
		recolored = res.Recolored
	} else {
		recolored, err = c.MarryDemand(req.U, req.V, req.Demand)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"recolored": recolored})
}

func (a *apiHandler) serveDivorce(w http.ResponseWriter, r *http.Request, c *Community) {
	u, errU := strconv.Atoi(r.URL.Query().Get("u"))
	v, errV := strconv.Atoi(r.URL.Query().Get("v"))
	if errU != nil || errV != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("query params u and v must be integers"))
		return
	}
	var removed, recolored bool
	var err error
	if a.Churn != nil {
		var res core.EditResult
		res, err = a.Churn.Churn(c, core.Edit{Op: core.EditDelete, U: u, V: v})
		removed, recolored = res.Applied, res.Recolored
	} else {
		removed, recolored, err = c.Divorce(u, v)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"removed": removed, "recolored": recolored})
}

func (a *apiHandler) serveChurn(w http.ResponseWriter, r *http.Request, c *Community) {
	var reqs []churnOpRequest
	if err := json.NewDecoder(r.Body).Decode(&reqs); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
		return
	}
	if len(reqs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty churn batch"))
		return
	}
	if len(reqs) > a.MaxBinBatch {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch exceeds %d edits", a.MaxBinBatch))
		return
	}
	edits := make([]core.Edit, len(reqs))
	for i, q := range reqs {
		switch q.Op {
		case "marry":
			edits[i] = core.Edit{Op: core.EditInsert, U: q.U, V: q.V, Demand: q.Demand}
		case "divorce":
			edits[i] = core.Edit{Op: core.EditDelete, U: q.U, V: q.V}
		default:
			writeError(w, http.StatusBadRequest, fmt.Errorf("edit %d: op %q is not \"marry\" or \"divorce\"", i, q.Op))
			return
		}
	}
	res := make([]core.EditResult, len(edits))
	recolorings, err := c.ChurnBatch(edits, res)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := churnResponse{
		Community:   c.ID(),
		Seq:         c.Seq(),
		Recolorings: recolorings,
		Results:     make([]churnOpResult, len(res)),
	}
	for i, r := range res {
		if r.Applied {
			resp.Applied++
		}
		resp.Results[i] = churnOpResult{Applied: r.Applied, Recolored: r.Recolored}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (a *apiHandler) serveWindow(w http.ResponseWriter, r *http.Request, c *Community) {
	from, err := queryInt64(r, "from", 1)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Reject from beyond the servable horizon before deriving the
	// default end: from+51 overflows int64 for from near the maximum,
	// which used to surface as a baffling "window [..,..] is empty".
	if from > core.MaxHoliday {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("window start %d beyond last servable holiday %d", from, core.MaxHoliday))
		return
	}
	defTo := from + 51 // default: one year of weekly holidays
	if defTo > core.MaxHoliday {
		defTo = core.MaxHoliday
	}
	to, err := queryInt64(r, "to", defTo)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The response rows (and their happy-set buffers) are pooled: the
	// window endpoint is the serving hot path and steady-state queries
	// should not allocate per row. AppendWindow overwrites the reused
	// slots, and writeJSON finishes encoding before the rows go back.
	wr := windowPool.Get().(*windowResponse)
	wr.Holidays, err = c.AppendWindow(wr.Holidays[:0], from, to)
	if err != nil {
		putWindowResponse(wr)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	wr.Community, wr.From, wr.To = c.ID(), from, to
	writeJSON(w, http.StatusOK, wr)
	putWindowResponse(wr)
}

func (a *apiHandler) serveNext(w http.ResponseWriter, r *http.Request, c *Community) {
	v, err := strconv.Atoi(r.PathValue("v"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("family id %q is not an integer", r.PathValue("v")))
		return
	}
	from, err := queryInt64(r, "from", 1)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	next, err := c.NextHappy(v, from)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, nextResponse{Community: c.ID(), Family: v, From: from, Next: next})
}

// communityStatus is one community's row in the /v1/status answer.
type communityStatus struct {
	ID string `json:"id"`
	// Kind is the community's scheduling kind ("classic" or "poly").
	Kind string `json:"kind,omitempty"`
	// Role is "owner" for communities this node takes writes for and
	// "follower" for fenced replicas.
	Role string `json:"role"`
	// Placed is the node the topology places the community on (only with a
	// router).
	Placed string `json:"placed,omitempty"`
	// Seq is the last journal sequence applied locally.
	Seq uint64 `json:"seq"`
	// Lag is the owner's sequence minus Seq for followed communities.
	Lag uint64 `json:"lag,omitempty"`
}

// statusResponse is the GET /v1/status answer.
type statusResponse struct {
	Node        string            `json:"node,omitempty"`
	Epoch       uint64            `json:"epoch"`
	Nodes       []Node            `json:"nodes,omitempty"`
	Overrides   map[string]string `json:"overrides,omitempty"`
	Communities []communityStatus `json:"communities"`
}

func (a *apiHandler) serveStatus(w http.ResponseWriter, r *http.Request) {
	resp := statusResponse{Node: a.Node, Communities: []communityStatus{}}
	if a.Router != nil {
		resp.Epoch = a.Router.Epoch()
		resp.Nodes = a.Router.Nodes()
		if ov := a.Router.Overrides(); len(ov) > 0 {
			resp.Overrides = ov
		}
	}
	var lag map[string]uint64
	if a.Lag != nil {
		lag = a.Lag()
	}
	for _, id := range a.Owner.List() {
		c, ok := a.Owner.Get(id)
		if !ok {
			continue
		}
		cs := communityStatus{ID: id, Kind: c.Kind(), Role: "owner", Seq: c.Seq()}
		if c.Fenced() {
			cs.Role = "follower"
			cs.Lag = lag[id]
		}
		if a.Router != nil {
			cs.Placed = a.Router.Place(id)
		}
		resp.Communities = append(resp.Communities, cs)
	}
	writeJSON(w, http.StatusOK, resp)
}

// promoteRequest is the POST /v1/promote body.
type promoteRequest struct {
	Community string `json:"community"`
}

// servePromote takes ownership of a community this node replicates: the
// router publishes an epoch-bumped table pinning the community here and
// the fence lifts (rebasing the replica into the local journal's sequence
// space), so writes land locally from the next request on. The break-glass
// failover path for when the automatic election cannot run; normal
// failovers promote without any operator call.
func (a *apiHandler) servePromote(w http.ResponseWriter, r *http.Request) {
	if a.Router == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("this node is not in a cluster"))
		return
	}
	var req promoteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
		return
	}
	c, ok := a.Owner.Get(req.Community)
	if !ok {
		writeError(w, http.StatusNotFound, Errf(CodeNotFound, "no community %q on this node", req.Community))
		return
	}
	if err := a.Router.Override(req.Community, a.Router.Self()); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	a.Owner.TakeOwnership(req.Community)
	writeJSON(w, http.StatusOK, map[string]any{
		"community": req.Community, "node": a.Node, "seq": c.Seq(), "epoch": a.Router.Epoch(),
	})
}

// servePlacementGet answers with the installed placement table.
func (a *apiHandler) servePlacementGet(w http.ResponseWriter, r *http.Request) {
	if a.Router == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("this node is not in a cluster"))
		return
	}
	writeJSON(w, http.StatusOK, a.Router.Placement())
}

// servePlacementSet offers a table to this node: installed iff it
// supersedes the current one (higher epoch; fingerprint breaks same-epoch
// ties), so republication and stale gossip are harmless. The response
// reports the decision and the epoch now in force.
func (a *apiHandler) servePlacementSet(w http.ResponseWriter, r *http.Request) {
	if a.Router == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("this node is not in a cluster"))
		return
	}
	var p Placement
	if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
		return
	}
	installed, err := a.Router.SetPlacement(p)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"installed": installed, "epoch": a.Router.Epoch(),
	})
}

// handoffRequest is the POST /v1/handoff body: move community to the node
// table assigns it to, and install table cluster-wide as the new epoch.
type handoffRequest struct {
	Community string    `json:"community"`
	Table     Placement `json:"table"`
}

// serveHandoff runs one live handoff from this node (the community's
// current owner) via the wired Handoff hook and reports what it cost.
func (a *apiHandler) serveHandoff(w http.ResponseWriter, r *http.Request) {
	if a.Router == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("this node is not in a cluster"))
		return
	}
	if a.Handoff == nil {
		writeError(w, http.StatusNotImplemented, Errf(CodeUnavailable, "this node does not serve handoffs"))
		return
	}
	var req handoffRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
		return
	}
	if req.Community == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("handoff request names no community"))
		return
	}
	cut, pause, err := a.Handoff(req.Community, req.Table)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"community": req.Community,
		"node":      req.Table.Assign[req.Community],
		"epoch":     req.Table.Epoch,
		"cut_seq":   cut,
		"pause_us":  pause.Microseconds(),
	})
}

// syncFences reconciles local ownership with the installed table after
// every placement change. Communities this node holds unfenced but the
// table places elsewhere are fenced (fail closed: a node that lost a
// community must stop taking writes the moment it learns). Fenced replicas
// the table explicitly assigns to this node are promoted — explicit
// assignments are only ever published by handoffs, elections, and the
// promote endpoint, so ring-derived placement alone never lifts a fence.
func syncFences(o *Owner, rt *Router) {
	self := rt.Self()
	if self == "" {
		return
	}
	assign := rt.Overrides()
	for _, id := range o.List() {
		c, ok := o.Get(id)
		if !ok {
			continue
		}
		if assign[id] == self {
			if c.Fenced() {
				o.TakeOwnership(id)
			}
		} else if !c.Fenced() && rt.Place(id) != self {
			o.Fence(id)
		}
	}
}

// binHandler serves one binary endpoint: the request body is a batch of
// length-prefixed wire frames, all of the allowed kind, and the response
// body is the matching batch in order — per-query failures arrive as Error
// frames in position, so a batch with one bad query still answers the rest.
// Protocol violations (malformed framing, a frame of the wrong kind, an
// empty or over-long batch) fail the whole request with a JSON 400: the
// client spoke the protocol wrong and no per-frame correspondence exists.
func (a *apiHandler) binHandler(allowed wire.Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, wire.MaxFrame))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("read binary request body: %w", err))
			return
		}
		bp := binBufPool.Get().(*[]byte)
		buf := (*bp)[:0]
		frames := 0
		for rest := body; len(rest) > 0; {
			var f wire.Frame
			f, rest, err = wire.Split(rest)
			if err != nil {
				putBinBuf(bp, buf)
				writeError(w, http.StatusBadRequest, err)
				return
			}
			if f.Kind != allowed {
				putBinBuf(bp, buf)
				writeError(w, http.StatusBadRequest, fmt.Errorf("%s frame on the %s endpoint", f.Kind, allowed))
				return
			}
			if frames++; frames > a.MaxBinBatch {
				putBinBuf(bp, buf)
				writeError(w, http.StatusBadRequest, fmt.Errorf("batch exceeds %d frames", a.MaxBinBatch))
				return
			}
			switch allowed {
			case wire.KindWindowReq:
				buf = a.serveBinWindow(buf, f)
			default:
				buf = a.serveBinNext(buf, f)
			}
		}
		if frames == 0 {
			putBinBuf(bp, buf)
			writeError(w, http.StatusBadRequest, fmt.Errorf("empty batch: the request body carried no frames"))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(buf)
		putBinBuf(bp, buf)
	}
}

// binNotFound answers a binary query for a community absent locally: 404 —
// or, with a router placing it elsewhere, an in-band not_owner Error so the
// client re-routes the frame itself (binary frames are never forwarded).
func (a *apiHandler) binNotFound(dst []byte, id string) []byte {
	if a.Router != nil {
		if node := a.Router.Place(id); node != a.Router.Self() {
			return appendWireError(dst, http.StatusMisdirectedRequest,
				Errf(CodeNotOwner, "community %q is owned by node %q, not %q", id, node, a.Node))
		}
	}
	return appendWireError(dst, http.StatusNotFound, Errf(CodeNotFound, "no community %q", id))
}

// churnBinHandler serves POST /v1/bin/churn: the request body is a batch of
// churn-request frames and the response the matching churn-response (or
// in-position Error) frames. Consecutive-or-not requests for the same
// community are grouped and applied as one amortized ChurnBatch flush —
// per-community order is the arrival order, which is the only order the
// protocol promises (edits to distinct communities are independent). Each
// frame is validated up front (unknown community → 404, misplaced community
// → 421 not_owner, out-of-range edit → 400, all as in-position Error
// frames), so a bad edit fails alone and the grouped batches it is excluded
// from stay all-or-nothing only against journal failures (→ 500 on every
// edit of the failed flush). Framing violations fail the whole request with
// a JSON 400, exactly like the other binary endpoints.
func (a *apiHandler) churnBinHandler() http.HandlerFunc {
	type group struct {
		c     *Community
		edits []core.Edit
		pos   []int // slot index of each edit, for positional responses
	}
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, wire.MaxFrame))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("read binary request body: %w", err))
			return
		}
		var slots []binChurnSlot
		var order []*group
		groups := make(map[*Community]*group)
		frames := 0
		for rest := body; len(rest) > 0; {
			var f wire.Frame
			f, rest, err = wire.Split(rest)
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			if f.Kind != wire.KindChurnReq {
				writeError(w, http.StatusBadRequest, fmt.Errorf("%s frame on the %s endpoint", f.Kind, wire.KindChurnReq))
				return
			}
			if frames++; frames > a.MaxBinBatch {
				writeError(w, http.StatusBadRequest, fmt.Errorf("batch exceeds %d frames", a.MaxBinBatch))
				return
			}
			op, id, u, v, err := f.ChurnReq()
			if err != nil {
				slots = append(slots, binChurnSlot{status: http.StatusBadRequest, err: err})
				continue
			}
			if a.Router != nil && !a.Router.IsLocal(id) {
				node := a.Router.Place(id)
				slots = append(slots, binChurnSlot{status: http.StatusMisdirectedRequest,
					err: Errf(CodeNotOwner, "community %q is owned by node %q, not %q", id, node, a.Node)})
				continue
			}
			c, ok := a.Owner.Get(id)
			if !ok {
				slots = append(slots, binChurnSlot{status: http.StatusNotFound, err: Errf(CodeNotFound, "no community %q", id)})
				continue
			}
			// Validate now, against the current family count: families only
			// grow, so the edit stays valid at flush time and one bad edit
			// can never sink its groupmates' batch.
			if err := validEdge(c.Families(), u, v); err != nil {
				slots = append(slots, binChurnSlot{status: http.StatusBadRequest, err: err})
				continue
			}
			g := groups[c]
			if g == nil {
				g = &group{c: c}
				groups[c] = g
				order = append(order, g)
			}
			g.edits = append(g.edits, core.Edit{Op: core.EditOp(op), U: u, V: v})
			g.pos = append(g.pos, len(slots))
			slots = append(slots, binChurnSlot{})
		}
		if frames == 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("empty batch: the request body carried no frames"))
			return
		}
		// One flush per community touched, in first-touch order. Validation
		// above means a flush can only fail on the journal or the fence — an
		// error every edit of the flush shares.
		for _, g := range order {
			res := make([]core.EditResult, len(g.edits))
			if _, err := g.c.ChurnBatch(g.edits, res); err != nil {
				for _, p := range g.pos {
					slots[p] = binChurnSlot{status: http.StatusInternalServerError, err: err}
				}
				continue
			}
			for i, p := range g.pos {
				slots[p] = binChurnSlot{ok: true, res: res[i]}
			}
		}
		bp := binBufPool.Get().(*[]byte)
		buf := (*bp)[:0]
		for _, s := range slots {
			if s.ok {
				buf = wire.AppendChurnResp(buf, s.res.Applied, s.res.Recolored)
			} else {
				buf = appendWireError(buf, s.status, s.err)
			}
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(buf)
		putBinBuf(bp, buf)
	}
}

// binChurnSlot is one positional outcome of a binary churn batch: either a
// per-edit result or the Error frame that will stand in its place.
type binChurnSlot struct {
	ok     bool
	res    core.EditResult
	status int
	err    error
}

// appendWireError appends a binary Error frame carrying the same {code,
// message} envelope writeError renders as JSON.
func appendWireError(dst []byte, status int, err error) []byte {
	status, ae := envelope(status, err)
	return wire.AppendError(dst, status, ae.Code.Num(), ae.Message)
}

// serveBinWindow answers one window-request frame, streaming the packed
// bitmap rows straight from the community's frozen schedule into dst: the
// response header is emitted once the family count is known, then one
// ⌈n/64⌉-word row per holiday — no []int row and no JSON on this path.
// Errors mirror the JSON endpoint's statuses (404 unknown community, 400
// invalid query, 421 misplaced).
func (a *apiHandler) serveBinWindow(dst []byte, f wire.Frame) []byte {
	id, from, to, err := f.WindowReq()
	if err != nil {
		return appendWireError(dst, http.StatusBadRequest, err)
	}
	c, ok := a.Owner.Get(id)
	if !ok {
		return a.binNotFound(dst, id)
	}
	werr := c.WindowBits(from, to,
		func(n int) { dst = wire.AppendWindowRespHeader(dst, n, from, int(to-from+1)) },
		func(t int64, row graph.Bitset) { dst = row.AppendBytes(dst) })
	if werr != nil {
		// WindowBits validates before emitting, so dst holds no partial
		// response; the error frame is the query's whole answer.
		return appendWireError(dst, http.StatusBadRequest, werr)
	}
	return dst
}

// serveBinNext answers one next-request frame; statuses mirror the JSON
// endpoint (404 for unknown community or family).
func (a *apiHandler) serveBinNext(dst []byte, f wire.Frame) []byte {
	id, v, from, err := f.NextReq()
	if err != nil {
		return appendWireError(dst, http.StatusBadRequest, err)
	}
	c, ok := a.Owner.Get(id)
	if !ok {
		return a.binNotFound(dst, id)
	}
	next, err := c.NextHappy(v, from)
	if err != nil {
		return appendWireError(dst, http.StatusNotFound, err)
	}
	return wire.AppendNextResp(dst, next)
}

// binBufPool recycles the response buffers of the binary endpoints — the
// bitmap rows are appended straight into these, so steady-state binary
// serving allocates neither rows nor staging buffers.
var binBufPool = sync.Pool{New: func() any { return new([]byte) }}

// binBufMax caps the buffers binBufPool retains, the same policy PR 4
// applied to the JSON window pool's Happy capacity: a rare maximal batch of
// MaxWindow-row bitmap responses must not pin its multi-megabyte buffer
// forever.
const binBufMax = 1 << 20

// putBinBuf returns a binary response buffer to the pool unless retaining
// it would pin too much memory (see retainBinBuf).
func putBinBuf(bp *[]byte, buf []byte) {
	if !retainBinBuf(buf) {
		return
	}
	*bp = buf[:0]
	binBufPool.Put(bp)
}

// retainBinBuf reports whether a binary response buffer is cheap enough to
// pool.
func retainBinBuf(buf []byte) bool { return cap(buf) <= binBufMax }

// createRequest is the POST /v1/communities body. Kind selects the
// scheduling problem ("" or "classic" = gathering, "poly" = polyamorous
// edge scheduling); demands and default_demand apply to poly only.
type createRequest struct {
	ID            string   `json:"id"`
	Families      int      `json:"families"`
	Edges         [][2]int `json:"edges"`
	Code          string   `json:"code"`
	Kind          string   `json:"kind"`
	Demands       []int64  `json:"demands"`
	DefaultDemand int64    `json:"default_demand"`
}

// edgeRequest is the POST /v1/communities/{id}/edges body. Demand is the
// poly per-edge demand (0 = community default); classic ignores it.
type edgeRequest struct {
	U      int   `json:"u"`
	V      int   `json:"v"`
	Demand int64 `json:"demand"`
}

// churnOpRequest is one element of the POST /v1/communities/{id}/churn
// array. Demand applies to poly marries only (0 = community default).
type churnOpRequest struct {
	Op     string `json:"op"` // "marry" or "divorce"
	U      int    `json:"u"`
	V      int    `json:"v"`
	Demand int64  `json:"demand"`
}

// churnOpResult is one element of the churn response's results array.
type churnOpResult struct {
	Applied   bool `json:"applied"`
	Recolored bool `json:"recolored"`
}

// churnResponse is the POST /v1/communities/{id}/churn answer: per-edit
// outcomes plus batch totals. Applied counts edits that changed the edge
// set; Recolorings counts §6 recoloring events the batch triggered. Seq is
// the community's journal sequence after the batch — the read-your-writes
// token a client hands to followers.
type churnResponse struct {
	Community   string          `json:"community"`
	Seq         uint64          `json:"seq"`
	Applied     int             `json:"applied"`
	Recolorings int             `json:"recolorings"`
	Results     []churnOpResult `json:"results"`
}

// windowResponse is the GET window answer.
type windowResponse struct {
	Community string       `json:"community"`
	From      int64        `json:"from"`
	To        int64        `json:"to"`
	Holidays  []HolidayRow `json:"holidays"`
}

// windowPool recycles window responses, rows included, across requests.
var windowPool = sync.Pool{New: func() any { return new(windowResponse) }}

// windowPoolMaxRows caps the row slices the pool retains: a rare MaxWindow
// query over a dense community should not pin its multi-megabyte response
// forever (same policy as encodeBufMax). Typical windows are ≤ one year.
const windowPoolMaxRows = 512

// windowPoolMaxHappy caps the total happy-set ints a pooled response may
// retain across all of its row slots. The row cap alone is not enough: a
// 512-row response over a huge dense community stays under windowPoolMaxRows
// while pinning every row's Happy backing array — megabytes per pooled
// response — forever. 1<<15 ints (256 KiB of int64) comfortably covers a
// year-long window over communities with hundreds of happy families per
// holiday.
const windowPoolMaxHappy = 1 << 15

// putWindowResponse returns a response to the pool unless it retains it
// would pin too much memory (see retainWindowResponse).
func putWindowResponse(wr *windowResponse) {
	if retainWindowResponse(wr) {
		windowPool.Put(wr)
	}
}

// retainWindowResponse reports whether a response is cheap enough to pool:
// its row slice is under the row cap and the Happy buffers of every slot —
// including spare slots beyond the last response's length, which keep their
// buffers for reuse — total under the happy cap.
func retainWindowResponse(wr *windowResponse) bool {
	if cap(wr.Holidays) > windowPoolMaxRows {
		return false
	}
	total := 0
	for _, row := range wr.Holidays[:cap(wr.Holidays)] {
		total += cap(row.Happy)
		if total > windowPoolMaxHappy {
			return false
		}
	}
	return true
}

// nextResponse is the GET next answer.
type nextResponse struct {
	Community string `json:"community"`
	Family    int    `json:"family"`
	From      int64  `json:"from"`
	// Next is the first holiday ≥ from at which the family is happy.
	Next int64 `json:"next"`
}

// queryInt64 parses an optional integer query parameter.
func queryInt64(r *http.Request, key string, def int64) (int64, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("query param %q must be an integer, got %q", key, s)
	}
	return v, nil
}

// encodeBufPool recycles the JSON staging buffers of writeJSON.
var encodeBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodeBufMax caps the buffers the pool retains; a rare giant response
// (e.g. a MaxWindow query over a dense community) should not pin its buffer
// forever.
const encodeBufMax = 1 << 20

// writeJSON renders v with the given status. Encoding stages through a
// pooled buffer: one Write to the connection, a Content-Length header for
// clients, and no per-response buffer allocations on the hot path.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := encodeBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		// Encoding failures are programming errors (all payloads are plain
		// structs); degrade to an opaque 500 rather than a torn body.
		http.Error(w, `{"code":"internal","message":"response encoding failed"}`, http.StatusInternalServerError)
		encodeBufPool.Put(buf)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= encodeBufMax {
		encodeBufPool.Put(buf)
	}
}

// writeError renders the {code, message} envelope. Enveloped errors (the
// *Error type) carry their own code and status; anything else is classified
// by the status the call site chose.
func writeError(w http.ResponseWriter, status int, err error) {
	status, ae := envelope(status, err)
	writeJSON(w, status, ae)
}
