package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"time"

	"repro/internal/benchkit"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/wire"
)

// Latency classes of the end-to-end report.
const (
	kindNext = iota
	kindWindow
	kindWrite
	numKinds
)

var kindNames = [numKinds]string{"next", "window", "write"}

// crossEvery is how often (in reads) a poly-served client re-asks a query
// over the other protocol and compares the answers.
const crossEvery = 32

// client is one closed-loop load generator: it sends its next request only
// after the previous one has been answered.
type client struct {
	id  int
	sys *system
	gen *benchkit.OpGen
	tr  *clientTrace

	// t0 and slice place each completed op in one of the phase's
	// intervals (see intervals); lat and okIn are kept per interval.
	t0    time.Time
	slice time.Duration
	lat   [][numKinds]samples
	okIn  []int64

	ok, failed int64
	// ops counts completed ops: reads, writes and every edit of a batch.
	ops   int64
	reads int64
	errs  []string

	// cross-protocol audit of poly-served reads
	crossChecked, crossSkipped int64

	// married holds, per community, the couples this client married and
	// has not divorced yet (see pair).
	married [][][2]int

	rows    []service.HolidayRow
	pending [][]core.Edit
	res     []core.EditResult
	rw      memWriter
	buf     []byte
	// words and enc hold the rows and the frame of probeWindow.
	words []uint64
	enc   []byte
}

// newClient returns a client whose ops, issued from t0 on, are booked into
// n intervals of length slice.
func newClient(id int, sys *system, seed uint64, t0 time.Time, slice time.Duration, n int) *client {
	return &client{
		id:      id,
		sys:     sys,
		gen:     benchkit.NewOpGen(sys.w.sc, sys.sizes, seed),
		t0:      t0,
		slice:   slice,
		lat:     make([][numKinds]samples, n),
		okIn:    make([]int64, n),
		married: make([][][2]int, len(sys.comms)),
		pending: make([][]core.Edit, len(sys.comms)),
		res:     make([]core.EditResult, max(sys.w.batch, 1)),
	}
}

// pair settles the community and couple of an op. The op moves to the
// same place in a block of communities this client owns, so its families
// stay in range. A divorce undoes this client's latest marriage in the
// community still standing, when there is one: random couples are almost
// never married, so divorcing them would leave only marriages, and every
// community would grow denser the more ops a run completed. With equal
// marry and divorce weights the edge count stays put and the state a run
// measures does not depend on how fast it ran.
func (cl *client) pair(op benchkit.Op) benchkit.Op {
	if cl.id >= 0 {
		b := cl.sys.w.block
		op.Community += (cl.id - op.Community/b%cl.sys.w.clients) * b
	}
	stack := cl.married[op.Community]
	switch {
	case op.Kind == benchkit.OpMarry:
		cl.married[op.Community] = append(stack, [2]int{op.U, op.V})
	case op.Kind == benchkit.OpDivorce && len(stack) > 0:
		last := stack[len(stack)-1]
		op.U, op.V = last[0], last[1]
		cl.married[op.Community] = stack[:len(stack)-1]
	}
	return op
}

// interval returns the interval an op completing at t belongs to.
func (cl *client) interval(t time.Time) int {
	i := int(t.Sub(cl.t0) / cl.slice)
	return min(max(i, 0), len(cl.lat)-1)
}

// fail records a failed op and keeps the first few reasons.
func (cl *client) fail(format string, args ...any) {
	cl.failed++
	if len(cl.errs) < 5 {
		cl.errs = append(cl.errs, fmt.Sprintf(format, args...))
	}
}

// run issues ops until the deadline, then flushes any open churn batches.
func (cl *client) run(deadline time.Time) {
	for now := time.Now(); now.Before(deadline); {
		now = cl.step()
	}
	for ci := range cl.pending {
		if len(cl.pending[ci]) > 0 {
			cl.tr.begin()
			cl.flush(ci)
			cl.tr.end()
		}
	}
}

// step draws and executes one op, returning the time it finished.
func (cl *client) step() time.Time {
	cl.tr.begin()
	g0 := cl.tr.now()
	op := cl.pair(cl.gen.Next())
	cl.tr.child(spGen, g0, 0, false)
	read := op.Kind == benchkit.OpNext || op.Kind == benchkit.OpWindow
	var end time.Time
	switch {
	case read && cl.sys.handler != nil:
		end = cl.httpRead(op)
	case read:
		end = cl.directRead(op)
	case cl.sys.w.batch > 0:
		cl.pending[op.Community] = append(cl.pending[op.Community], edit(op))
		if len(cl.pending[op.Community]) >= cl.sys.w.batch {
			cl.flush(op.Community)
		}
		end = time.Now()
	default:
		end = cl.write(op)
	}
	cl.tr.end()
	return end
}

// record books one op that completed at end after d.
func (cl *client) record(kind int, end time.Time, d time.Duration, ok bool) {
	i := cl.interval(end)
	cl.lat[i][kind] = append(cl.lat[i][kind], int64(d))
	cl.ops++
	if ok {
		cl.ok++
		cl.okIn[i]++
	}
}

// schedule is the traced form of the Schedule() call every read makes: it
// records a freeze span when the returned schedule is one no traced call
// has seen yet, and a cache-hit span otherwise.
func (cl *client) schedule(ci int) (core.Schedule, error) {
	s0 := cl.tr.now()
	sched, err := cl.sys.comms[ci].Schedule()
	if err != nil {
		return nil, err
	}
	name := spSchedule
	if cl.sys.seen[ci].first(sched) {
		name = spCoreFreeze
		if cl.sys.w.kind == service.KindPoly {
			name = spPolyFreeze
		}
	}
	cl.tr.child(name, s0, 0, false)
	return sched, nil
}

// directRead serves a next or window op through the Community API. Traced
// runs split the call into Schedule() and the schedule query, which is
// exactly what NextHappy and AppendWindow do inside.
func (cl *client) directRead(op benchkit.Op) time.Time {
	c := cl.sys.comms[op.Community]
	t0 := time.Now()
	var err error
	var next int64
	if cl.tr == nil {
		if op.Kind == benchkit.OpNext {
			next, err = c.NextHappy(op.U, op.From)
		} else {
			cl.rows, err = c.AppendWindow(cl.rows[:0], op.From, op.To)
		}
	} else {
		next, err = cl.tracedRead(op)
	}
	t1 := time.Now()
	cl.reads++
	kind := kindWindow
	ok := err == nil
	if op.Kind == benchkit.OpNext {
		kind = kindNext
		if ok && next < op.From {
			ok = false
			err = fmt.Errorf("next happy %d before %d", next, op.From)
		}
	} else if ok {
		err = checkRows(cl.rows, op.From, op.To)
		ok = err == nil
	}
	if !ok {
		cl.fail("%s %s: %v", kindNames[kind], c.ID(), err)
	}
	cl.record(kind, t1, t1.Sub(t0), ok)
	return t1
}

// tracedRead is directRead's traced body.
func (cl *client) tracedRead(op benchkit.Op) (int64, error) {
	sched, err := cl.schedule(op.Community)
	if err != nil {
		return 0, err
	}
	s0 := cl.tr.now()
	if op.Kind == benchkit.OpNext {
		nc, ok := sched.(core.NodeCounter)
		if !ok || op.U >= nc.Nodes() {
			return 0, fmt.Errorf("family %d out of range", op.U)
		}
		next := sched.NextHappy(op.U, op.From)
		cl.tr.child(spCoreNext, s0, 1, false)
		return next, nil
	}
	cl.rows = appendRows(cl.rows[:0], sched, op.From, op.To)
	cl.tr.child(spCoreWindow, s0, len(cl.rows), false)
	return 0, nil
}

// appendRows walks sched's window [from, to] into rows, reusing their
// happy buffers, exactly as Community.AppendWindow does.
func appendRows(rows []service.HolidayRow, sched core.Schedule, from, to int64) []service.HolidayRow {
	sched.Window(from, to, func(t int64, happy []int) {
		n := len(rows)
		if cap(rows) > n {
			rows = rows[:n+1]
		} else {
			rows = append(rows, service.HolidayRow{})
		}
		rows[n].Holiday = t
		rows[n].Happy = append(rows[n].Happy[:0], happy...)
	})
	return rows
}

// checkRows verifies a window answer covers exactly [from, to] in order.
func checkRows(rows []service.HolidayRow, from, to int64) error {
	if int64(len(rows)) != to-from+1 {
		return fmt.Errorf("window [%d,%d] returned %d rows", from, to, len(rows))
	}
	for i, r := range rows {
		if r.Holiday != from+int64(i) {
			return fmt.Errorf("window row %d is holiday %d, want %d", i, r.Holiday, from+int64(i))
		}
	}
	return nil
}

// write serves one marry or divorce through the handler's JSON edge
// endpoints.
func (cl *client) write(op benchkit.Op) time.Time {
	c := cl.sys.comms[op.Community]
	t0 := time.Now()
	var err error
	if op.Kind == benchkit.OpMarry {
		err = cl.serve("POST", "/v1/communities/"+c.ID()+"/edges",
			fmt.Appendf(cl.buf[:0], `{"u":%d,"v":%d}`, op.U, op.V), false)
	} else {
		err = cl.serve("DELETE",
			"/v1/communities/"+c.ID()+"/edges?u="+strconv.Itoa(op.U)+"&v="+strconv.Itoa(op.V), nil, false)
	}
	t1 := time.Now()
	if err != nil {
		cl.fail("write %s: %v", c.ID(), err)
	}
	cl.record(kindWrite, t1, t1.Sub(t0), err == nil)
	return t1
}

// flush applies one community's pending edits as a single ChurnBatch. The
// batch is one write sample; each of its edits is one op.
func (cl *client) flush(ci int) {
	edits := cl.pending[ci]
	c := cl.sys.comms[ci]
	s0 := cl.tr.now()
	t0 := time.Now()
	_, err := c.ChurnBatch(edits, cl.res[:len(edits)])
	t1 := time.Now()
	cl.tr.childOf(spChurnBatch, s0, len(edits), false, ci)
	i := cl.interval(t1)
	cl.lat[i][kindWrite] = append(cl.lat[i][kindWrite], int64(t1.Sub(t0)))
	cl.ops += int64(len(edits))
	if err != nil {
		cl.failed += int64(len(edits)) - 1
		cl.fail("churn batch %s: %v", c.ID(), err)
	} else {
		cl.ok += int64(len(edits))
		cl.okIn[i] += int64(len(edits))
	}
	cl.pending[ci] = edits[:0]
}

// memWriter is the in-memory http.ResponseWriter the handler writes to.
type memWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *memWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}

func (w *memWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *memWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, b...)
	return len(b), nil
}

func (w *memWriter) reset() {
	clear(w.h)
	w.code = 0
	w.body = w.body[:0]
}

// useBinary picks the protocol of a poly-served read from its generated
// input, so the split is fixed by the seed: three reads in four go binary.
// An even split would put the medians on the edge between the binary and
// the slower JSON latencies.
func useBinary(op benchkit.Op) bool { return op.From%4 != 0 }

// answer is a decoded read answer: a next-happy holiday, or a window's
// happy sets, one per holiday.
type answer struct {
	next  int64
	happy [][]int
}

// httpRead serves one read through the handler. Traced runs first call
// Schedule() themselves, so a freeze shows as its own span and the
// handler's own Schedule() is a cache hit; on the window reads the trace
// keeps they also probe the layers the handler calls (see probeWindow).
func (cl *client) httpRead(op benchkit.Op) time.Time {
	c := cl.sys.comms[op.Community]
	if cl.tr != nil {
		sched, err := cl.schedule(op.Community)
		if err == nil && op.Kind == benchkit.OpWindow && cl.tr.kept() {
			cl.probeWindow(sched, op)
		}
	}
	kind := kindNext
	if op.Kind == benchkit.OpWindow {
		kind = kindWindow
	}
	t0 := time.Now()
	a, err := cl.ask(op, useBinary(op), false)
	// 0 is the answer for a vacant edge slot, which is never happy; the
	// cross-checks compare it with the schedule.
	if err == nil && op.Kind == benchkit.OpNext && a.next != 0 && a.next < op.From {
		err = fmt.Errorf("next happy %d before %d", a.next, op.From)
	}
	t1 := time.Now()
	if err != nil {
		cl.fail("%s %s: %v", kindNames[kind], c.ID(), err)
	}
	cl.record(kind, t1, t1.Sub(t0), err == nil)
	if cl.reads++; cl.reads%crossEvery == 0 {
		cl.crossCheck(op)
	}
	return t1
}

// probeWindow times, beside the handler and on the same frozen schedule,
// the work the handler's window endpoint does inside ServeHTTP: the poly
// window walk, and for a binary read the encoding of the response frame. A
// JSON read walks the schedule as AppendWindow does; a binary read walks it
// as WindowBits does, then encodes the rows it kept as the handler does.
// The probes are estimates of work inside the http.serve span, so perLayer
// moves their time from http to poly and wire. The row copy between the
// walk and the encode is the benchmark's own work, charged to no layer.
func (cl *client) probeWindow(sched core.Schedule, op benchkit.Op) {
	if !useBinary(op) {
		s0 := cl.tr.now()
		cl.rows = appendRows(cl.rows[:0], sched, op.From, op.To)
		cl.tr.child(spPolyRows, s0, len(cl.rows), false)
		return
	}
	n := sched.(core.NodeCounter).Nodes()
	s0 := cl.tr.now()
	rows := 0
	core.WindowBits(sched, n, op.From, op.To, func(int64, graph.Bitset) { rows++ })
	cl.tr.child(spPolyWindow, s0, rows, true)
	s0 = cl.tr.now()
	cl.words = cl.words[:0]
	core.WindowBits(sched, n, op.From, op.To, func(_ int64, row graph.Bitset) { cl.words = append(cl.words, row...) })
	cl.tr.child(spProbeCopy, s0, rows, true)
	s0 = cl.tr.now()
	w := wire.Words(n)
	cl.enc = wire.AppendWindowRespHeader(cl.enc[:0], n, op.From, rows)
	for i := 0; i < rows; i++ {
		cl.enc = graph.Bitset(cl.words[i*w : (i+1)*w]).AppendBytes(cl.enc)
	}
	cl.tr.child(spWireRespEncode, s0, 1, true)
}

// serve runs one request through the handler into cl.rw.
func (cl *client) serve(method, target string, body []byte, bin bool) error {
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	var req *http.Request
	var err error
	if rd != nil {
		req, err = http.NewRequest(method, "http://holidayd"+target, rd)
	} else {
		req, err = http.NewRequest(method, "http://holidayd"+target, nil)
	}
	if err != nil {
		return err
	}
	cl.rw.reset()
	s0 := cl.tr.now()
	cl.sys.handler.ServeHTTP(&cl.rw, req)
	cl.tr.child(spServe, s0, len(cl.rw.body), bin)
	if cl.rw.code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, target, cl.rw.code, cl.rw.body)
	}
	return nil
}

// ask sends one read over binary or JSON and decodes the answer; with keep
// it also returns a window's happy sets.
func (cl *client) ask(op benchkit.Op, bin, keep bool) (answer, error) {
	id := cl.sys.comms[op.Community].ID()
	var a answer
	if bin {
		s0 := cl.tr.now()
		target := "/v1/bin/next"
		if op.Kind == benchkit.OpWindow {
			target = "/v1/bin/window"
			cl.buf = wire.AppendWindowReq(cl.buf[:0], id, op.From, op.To)
		} else {
			cl.buf = wire.AppendNextReq(cl.buf[:0], id, op.U, op.From)
		}
		cl.tr.child(spWireReqEncode, s0, 1, true)
		if err := cl.serve("POST", target, cl.buf, true); err != nil {
			return a, err
		}
		s0 = cl.tr.now()
		f, rest, err := wire.Split(cl.rw.body)
		if err == nil && len(rest) != 0 {
			err = fmt.Errorf("%d bytes after the response frame", len(rest))
		}
		if err != nil {
			return a, err
		}
		if f.Kind == wire.KindError {
			_, _, msg, _ := f.ErrorResp()
			return a, fmt.Errorf("error frame: %s", msg)
		}
		if op.Kind == benchkit.OpNext {
			a.next, err = f.NextResp()
		} else {
			var wr wire.WindowResp
			wr, err = f.WindowResp()
			if err == nil && (wr.From != op.From || int64(wr.Rows) != op.To-op.From+1) {
				err = fmt.Errorf("window response covers %d rows from %d, want [%d,%d]", wr.Rows, wr.From, op.From, op.To)
			}
			if err == nil && keep {
				for i := 0; i < wr.Rows; i++ {
					a.happy = append(a.happy, wr.AppendHappy(nil, i))
				}
			}
		}
		cl.tr.child(spWireRespDecode, s0, 1, true)
		return a, err
	}
	if op.Kind == benchkit.OpNext {
		target := "/v1/communities/" + id + "/families/" + strconv.Itoa(op.U) + "/next?from=" + strconv.FormatInt(op.From, 10)
		if err := cl.serve("GET", target, nil, false); err != nil {
			return a, err
		}
		var resp struct {
			Next int64 `json:"next"`
		}
		if err := json.Unmarshal(cl.rw.body, &resp); err != nil {
			return a, err
		}
		a.next = resp.Next
		return a, nil
	}
	target := "/v1/communities/" + id + "/window?from=" + strconv.FormatInt(op.From, 10) + "&to=" + strconv.FormatInt(op.To, 10)
	if err := cl.serve("GET", target, nil, false); err != nil {
		return a, err
	}
	if !keep {
		// Timed reads only count the rows: decoding every happy set here
		// would make the client, not the handler, the cost being measured.
		// Cross-checks decode and compare them in full.
		if rows := int64(bytes.Count(cl.rw.body, []byte(`"holiday":`))); rows != op.To-op.From+1 {
			return a, fmt.Errorf("window [%d,%d] returned %d rows", op.From, op.To, rows)
		}
		return a, nil
	}
	var resp struct {
		Holidays []service.HolidayRow `json:"holidays"`
	}
	if err := json.Unmarshal(cl.rw.body, &resp); err != nil {
		return a, err
	}
	if err := checkRows(resp.Holidays, op.From, op.To); err != nil {
		return a, err
	}
	for _, r := range resp.Holidays {
		a.happy = append(a.happy, r.Happy)
	}
	return a, nil
}

// crossCheck asks a read again over both protocols, untimed, and compares
// both answers with the frozen schedule they were served from. A churn
// between the two questions (the schedule changed) skips the comparison.
func (cl *client) crossCheck(op benchkit.Op) {
	tr := cl.tr
	cl.tr = nil // the audit's requests are not part of the traced request
	defer func() { cl.tr = tr }()
	c := cl.sys.comms[op.Community]
	before, err := c.Schedule()
	if err != nil {
		cl.fail("cross-check %s: %v", c.ID(), err)
		return
	}
	bin, errB := cl.ask(op, true, true)
	js, errJ := cl.ask(op, false, true)
	after, err := c.Schedule()
	if err != nil || errB != nil || errJ != nil {
		cl.fail("cross-check %s: %v %v %v", c.ID(), err, errB, errJ)
		return
	}
	if before != after {
		cl.crossSkipped++
		return
	}
	cl.crossChecked++
	if err := compareAnswers(op, bin, js, before); err != nil {
		cl.fail("cross-check %s: %v", c.ID(), err)
	}
}

// compareAnswers checks that the binary and JSON answers to op agree with
// each other and with the schedule both were served from.
func compareAnswers(op benchkit.Op, bin, js answer, sched core.Schedule) error {
	if op.Kind == benchkit.OpNext {
		want := sched.NextHappy(op.U, op.From)
		if bin.next != js.next || bin.next != want {
			return fmt.Errorf("next(%d, %d): binary %d, JSON %d, schedule %d", op.U, op.From, bin.next, js.next, want)
		}
		return nil
	}
	var want [][]int
	sched.Window(op.From, op.To, func(_ int64, happy []int) { want = append(want, slices.Clone(happy)) })
	if len(bin.happy) != len(want) || len(js.happy) != len(want) {
		return fmt.Errorf("window [%d,%d]: binary %d rows, JSON %d rows, schedule %d", op.From, op.To, len(bin.happy), len(js.happy), len(want))
	}
	for i := range want {
		if !slices.Equal(bin.happy[i], want[i]) || !slices.Equal(js.happy[i], want[i]) {
			return fmt.Errorf("window holiday %d: binary %v, JSON %v, schedule %v", op.From+int64(i), bin.happy[i], js.happy[i], want[i])
		}
	}
	return nil
}
