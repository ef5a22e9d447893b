package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// spanName identifies the call a span times. Every span is recorded by the
// benchmark around its own call into one layer; spans inside the program
// are not recorded.
type spanName uint8

const (
	spOp             spanName = iota // one client request, the root
	spGen                            // benchkit.OpGen.Next
	spSchedule                       // Community.Schedule() answered from the cache
	spCoreFreeze                     // Community.Schedule() that froze a classic schedule
	spPolyFreeze                     // Community.Schedule() that froze a poly schedule
	spCoreNext                       // core.Schedule.NextHappy
	spCoreWindow                     // core.Schedule.Window, rows copied as AppendWindow does
	spPolyWindow                     // probe: poly walk of a binary window read (core.WindowBits)
	spPolyRows                       // probe: poly walk of a JSON window read, rows copied as AppendWindow does
	spChurnBatch                     // Community.ChurnBatch
	spAppend                         // journal append (persist WAL Log or LogBatch)
	spServe                          // handler ServeHTTP
	spWireReqEncode                  // client request-frame encode
	spWireRespEncode                 // probe: window response-frame encode, as the handler does it
	spWireRespDecode                 // client response-frame decode
	spProbeCopy                      // probe: row copy between the walk and the encode, charged to no layer
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.op", "client.gen", "service.schedule", "core.freeze", "poly.freeze",
	"core.next", "core.window", "poly.window", "poly.window_rows", "service.churn_batch",
	"persist.append", "http.serve", "wire.req_encode", "wire.resp_encode", "wire.resp_decode", "probe.copy",
}

// layerOf names the layer a span's self time is charged to. The probe
// layer is not reported: its spans are the benchmark's own work.
var layerOf = [numSpanNames]string{
	"client", "client", "service", "core", "poly",
	"core", "core", "poly", "poly", "service",
	"persist", "http", "wire", "wire", "wire", "probe",
}

// insideServe marks the probe spans that estimate work the handler does
// inside an http.serve span of the same request: their time is taken out
// of http's self time as well as out of the request's.
var insideServe = [numSpanNames]bool{spPolyWindow: true, spPolyRows: true, spWireRespEncode: true}

// layers lists every layer in report order.
var layers = []string{"client", "service", "core", "poly", "persist", "http", "wire"}

// span is one timed call. Times are nanoseconds since the traced phase
// began. Parent indexes the same client's spans (-1 for a root).
type span struct {
	req        uint64
	start, end int64
	parent     int32
	// n is the span's work count: rows for window spans, response bytes
	// for http.serve, edits for churn batches, records for appends.
	n      int32
	comm   int32 // community index of churn-batch spans
	name   spanName
	weight uint8 // requests the kept root stands for (sampling)
	bin    bool  // http.serve of a binary request
}

// traceEvery keeps one request in traceEvery whole; requests that froze a
// schedule are always kept, so rare slow events are never sampled away.
const traceEvery = 16

// maxSpans caps one client's kept spans; later requests go untraced.
const maxSpans = 1 << 19

// clientTrace records one client's spans in memory.
type clientTrace struct {
	id    uint64
	t0    time.Time
	spans []span
	nReq  uint64
	root  int32 // open root span, -1 when the request is untraced
	keep  bool  // the open request must be kept whatever the sampling
}

func newClientTrace(id int, t0 time.Time) *clientTrace {
	return &clientTrace{id: uint64(id), t0: t0, root: -1}
}

// now returns the span clock, 0 when tracing is off.
func (t *clientTrace) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// begin opens a request's root span.
func (t *clientTrace) begin() {
	if t == nil {
		return
	}
	t.nReq++
	t.keep = false
	if len(t.spans) >= maxSpans {
		t.root = -1
		return
	}
	t.root = int32(len(t.spans))
	t.spans = append(t.spans, span{req: t.id<<48 | t.nReq, start: t.now(), parent: -1, name: spOp})
}

// kept reports whether the open request will be kept so far: it is in the
// uniform sample, or one of its spans already forced it (see child).
func (t *clientTrace) kept() bool {
	return t != nil && t.root >= 0 && (t.keep || t.nReq%traceEvery == 0)
}

// child records a span of the open request that began at start and ends
// now. Freezes and churn batches keep their request: freezes are rare and
// slow, and churn batches are the parents of the journal's append spans.
func (t *clientTrace) child(name spanName, start int64, n int, bin bool) {
	t.childOf(name, start, n, bin, -1)
}

// childOf is child with the community index recorded.
func (t *clientTrace) childOf(name spanName, start int64, n int, bin bool, comm int) {
	if t == nil || t.root < 0 {
		return
	}
	t.spans = append(t.spans, span{
		req: t.spans[t.root].req, start: start, end: t.now(),
		parent: t.root, n: int32(n), comm: int32(comm), name: name, bin: bin,
	})
	switch name {
	case spCoreFreeze, spPolyFreeze, spChurnBatch:
		t.keep = true
	}
}

// end closes the open request, dropping its spans unless it is sampled or
// must be kept.
func (t *clientTrace) end() {
	if t == nil || t.root < 0 {
		return
	}
	r := &t.spans[t.root]
	r.end = t.now()
	switch {
	case t.keep:
		r.weight = 1
	case t.nReq%traceEvery == 0:
		r.weight = traceEvery
	default:
		t.spans = t.spans[:t.root]
	}
	t.root = -1
}

// schedSeen remembers the last frozen schedule traced calls saw for one
// community. Holding it also keeps its address from being reused.
type schedSeen struct {
	mu sync.Mutex
	s  core.Schedule
}

// first reports whether s differs from the last schedule seen, recording it.
func (x *schedSeen) first(s core.Schedule) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.s == s {
		return false
	}
	x.s = s
	return true
}

// appendSpan is one timed journal append.
type appendSpan struct {
	comm       string
	start, end int64
	records    int
}

// timingJournal is the service.Journal of traced journaled runs: it wraps
// the persist WAL and, while on, times every append. Appends happen inside
// ChurnBatch under the community lock, on the calling client's goroutine;
// they are matched to their churn-batch span afterwards by community and
// time.
type timingJournal struct {
	inner service.BatchJournal
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []appendSpan
}

// start begins timing appends against the phase clock t0.
func (j *timingJournal) start(t0 time.Time) {
	j.t0 = t0
	j.on.Store(true)
}

func (j *timingJournal) stop() { j.on.Store(false) }

// Log implements service.Journal.
func (j *timingJournal) Log(rec service.Record) (uint64, error) {
	if !j.on.Load() {
		return j.inner.Log(rec)
	}
	s := time.Since(j.t0)
	seq, err := j.inner.Log(rec)
	j.record(rec.ID, s, time.Since(j.t0), 1)
	return seq, err
}

// LogBatch implements service.BatchJournal.
func (j *timingJournal) LogBatch(recs []service.Record) (uint64, error) {
	if !j.on.Load() || len(recs) == 0 {
		return j.inner.LogBatch(recs)
	}
	s := time.Since(j.t0)
	seq, err := j.inner.LogBatch(recs)
	j.record(recs[0].ID, s, time.Since(j.t0), len(recs))
	return seq, err
}

func (j *timingJournal) record(comm string, s, e time.Duration, n int) {
	j.mu.Lock()
	j.spans = append(j.spans, appendSpan{comm: comm, start: int64(s), end: int64(e), records: n})
	j.mu.Unlock()
}

// traceData is everything one traced phase recorded.
type traceData struct {
	clients [][]span
	appends []appendSpan
	// commIndex maps a community id to its index.
	commIndex map[string]int
}

// spanRef addresses one span of one client.
type spanRef struct{ client, idx int }

// appendParents matches every append to the churn-batch span of the same
// community whose interval contains it. Batches of one community are
// serialized by its lock, so at most one can contain a given append.
func (td *traceData) appendParents() []spanRef {
	type iv struct {
		ref        spanRef
		start, end int64
	}
	byComm := map[int][]iv{}
	for c, ss := range td.clients {
		for i, s := range ss {
			if s.name == spChurnBatch {
				byComm[int(s.comm)] = append(byComm[int(s.comm)], iv{spanRef{c, i}, s.start, s.end})
			}
		}
	}
	for _, ivs := range byComm {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	}
	parents := make([]spanRef, len(td.appends))
	for i, a := range td.appends {
		parents[i] = spanRef{-1, -1}
		ci, ok := td.commIndex[a.comm]
		if !ok {
			continue
		}
		ivs := byComm[ci]
		k := sort.Search(len(ivs), func(k int) bool { return ivs[k].start > a.start }) - 1
		if k >= 0 && ivs[k].end >= a.end {
			parents[i] = ivs[k].ref
		}
	}
	return parents
}

// writeSpans writes every kept span as CSV: one line per span with its
// request, id, parent id (-1 for roots), name, layer, start and end in ns
// since the phase began, work count and sampling weight. Appends carry the
// id of the churn-batch span that caused them.
func (td *traceData) writeSpans(file string) error {
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req,span,parent,name,layer,start_ns,end_ns,n,weight")
	base := make([]int, len(td.clients)+1)
	for c, ss := range td.clients {
		base[c+1] = base[c] + len(ss)
	}
	for c, ss := range td.clients {
		for i, s := range ss {
			parent := -1
			if s.parent >= 0 {
				parent = base[c] + int(s.parent)
			}
			fmt.Fprintf(w, "%d,%d,%d,%s,%s,%d,%d,%d,%d\n", s.req, base[c]+i, parent,
				spanNames[s.name], layerOf[s.name], s.start, s.end, s.n, s.weight)
		}
	}
	for i, p := range td.appendParents() {
		a := td.appends[i]
		parent, req := -1, uint64(0)
		if p.client >= 0 {
			parent = base[p.client] + p.idx
			req = td.clients[p.client][p.idx].req
		}
		fmt.Fprintf(w, "%d,%d,%d,%s,%s,%d,%d,%d,1\n", req, base[len(td.clients)]+i, parent,
			spanNames[spAppend], layerOf[spAppend], a.start, a.end, a.records)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
