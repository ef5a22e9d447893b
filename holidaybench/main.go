// Command holidaybench is the repository's benchmark. It drives holidayd's
// layers in process, through their public functions and without sockets,
// under closed-loop load from a fixed number of client goroutines, audits
// every answer it got against the paper's guarantees, and prints every
// metric by name and unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, see run.sh):
//
//	holidaybench --workload poly-served|durable-churn \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// the same untraced phase, then a traced phase of the same length, and
// reports per-layer metrics from spans it recorded around its own calls into
// each layer, each layer's self time, and the tracing overhead; the spans
// are written to .bench_build/spans-<workload>.csv when the run ends. It
// exits non-zero when any answer fails its audit.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/benchkit"
	"repro/internal/persist"
	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the settings of one run. The command line sets workload,
// seed, seconds and trace; tests also shrink every community (toy) and
// choose where the spans go.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	toy      bool
	spans    string
}

// result is the JSON object printed last.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("holidaybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of each measured phase, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 adds a traced phase and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case trace != 0 && trace != 1:
		fmt.Fprintln(stderr, "holidaybench: --trace must be 0 or 1")
		return 2
	case !(o.seconds > 0):
		fmt.Fprintln(stderr, "holidaybench: --seconds must be positive")
		return 2
	}
	o.trace = trace == 1
	o.spans = filepath.Join(".bench_build", "spans-"+o.workload+".csv")
	return runOptions(o, stdout, stderr)
}

// runOptions runs one benchmark, prints its result line and returns the
// exit code.
func runOptions(o options, stdout, stderr io.Writer) int {
	res, err := bench(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "holidaybench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "holidaybench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "holidaybench: audit failed")
		return 1
	}
	return 0
}

// heapLimit is the memory limit the collector works to for the whole run,
// with GOGC off: it collects only when the heap nears the limit. The
// harness shares the heap with the program, and at GOGC=100 the heaps of
// these workloads (tens of MB) were collected several times a second; the
// mark assists charged to whichever op allocated during a cycle (a WAL
// append's JSON encoding, a schedule rebuild) put about one write in two
// hundred past a millisecond, right at write_p99. A fixed limit makes
// cycles a few times rarer while keeping the heap bounded: a higher GOGC
// does not, because every frozen schedule keeps its scratch pools reachable
// until the second collection after it is replaced, so the retained heap
// grows with the allocation between collections. Allocation still costs
// its malloc and its share of marking.
const heapLimit = 256 << 20

// intervals is how many equal parts a measured phase is cut into. Each
// end-to-end rate and percentile is computed per part and the median of the
// parts is reported, so a burst of load from outside the benchmark that
// spans less than half of the run does not move it.
const intervals = 5

// phase is what one measured phase recorded.
type phase struct {
	elapsed time.Duration
	// lat holds all samples of each kind, sorted; parts holds them per
	// interval, sorted, with the interval's ok ops and length.
	lat        [numKinds]samples
	parts      [intervals][numKinds]samples
	partOK     [intervals]int64
	partLen    [intervals]time.Duration
	ops, ok    int64
	failed     int64
	writes     int64 // marry/divorce ops completed (edits, for batches)
	requests   int64
	errs       []string
	delta      counters
	crossOK    int64
	crossSkip  int64
	trace      *traceData
	walBytes   int64 // WAL growth over the phase (traced journaled runs)
	walRecords int64
}

func (p *phase) throughput() float64 { return float64(p.ok) / p.elapsed.Seconds() }

// partThroughput returns the median over intervals of ok ops per second.
func (p *phase) partThroughput() float64 {
	var xs []float64
	for i := range p.partOK {
		xs = append(xs, float64(p.partOK[i])/p.partLen[i].Seconds())
	}
	return median(xs)
}

// partQuantile returns the median over intervals of each interval's
// percentile q (the tail rule applies per interval), with the smallest
// interval's sample counts.
func (p *phase) partQuantile(kind int, q float64) quantile {
	var vals []float64
	var least quantile
	for i := range p.parts {
		s := p.parts[i][kind]
		var r quantile
		if q == 0.5 {
			r = s.at(q)
		} else {
			r = s.tail(q)
		}
		vals = append(vals, float64(r.Value))
		if i == 0 || r.N < least.N {
			least = r
		}
	}
	least.Value = int64(median(vals))
	least.parts = len(p.parts)
	return least
}

// bench runs one workload end to end and assembles the result.
func bench(o options, out io.Writer) (*result, error) {
	w, err := newWorkload(o.workload, o.toy)
	if err != nil {
		return nil, err
	}
	prev := runtime.GOMAXPROCS(w.clients)
	defer runtime.GOMAXPROCS(prev)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(heapLimit))
	scale := "full"
	if o.toy {
		scale = "toy"
	}
	fmt.Fprintf(out, "holidaybench workload=%s seed=%d seconds=%g trace=%v scale=%s\n", w.name, o.seed, o.seconds, o.trace, scale)
	fmt.Fprintf(out, "load: closed loop, clients=%d gomaxprocs=%d gogc=off gomemlimit=%dMiB churn=%.2f communities=%d, each client owning its own\n",
		w.clients, runtime.GOMAXPROCS(0), heapLimit>>20, w.churn, len(w.sc.Communities))
	if w.journal {
		fmt.Fprintf(out, "journal: persist WAL, holidayd's default policy SyncBatch with group commit every %v (holidayd's default interval is %v), so no fsync during a run\n",
			walSyncInterval, persist.DefaultSyncInterval)
	}
	if w.batch > 0 {
		fmt.Fprintf(out, "writes: %d edits per community per write request\n", w.batch)
	}

	su, err := setup(w, o.seed, o.trace)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	sys := su.sys
	defer sys.close()

	// An untimed phase of the full mix comes first: the first seconds of
	// load run measurably slower than the rest (heap growth, pools, caches),
	// and that must not land in the measured phase.
	dur := time.Duration(o.seconds * float64(time.Second))
	warm, err := runPhase(sys, o.seed+2, min(dur/4, 3*time.Second), false)
	if err != nil {
		return nil, err
	}
	attempted, failed, errs := warm.ops, warm.failed, warm.errs
	pu, err := runPhase(sys, o.seed, dur, false)
	if err != nil {
		return nil, err
	}
	attempted += pu.ops
	failed += pu.failed
	errs = append(errs, pu.errs...)
	var pt *phase
	if o.trace {
		if pt, err = runPhase(sys, o.seed+1, dur, true); err != nil {
			return nil, err
		}
		attempted += pt.ops
		failed += pt.failed
		errs = append(errs, pt.errs...)
	}

	aud, err := auditState(sys, rand.New(rand.NewPCG(o.seed, 0x5eed)))
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	attempted += aud.checks
	failed += aud.failed
	errs = append(errs, aud.violations...)
	if w.served {
		cross := finalCrossChecks(sys, o.seed)
		attempted += cross.ops
		failed += cross.failed
		errs = append(errs, cross.errs...)
	}

	rec, err := recoverState(sys, o.seed)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	attempted += rec.checks
	failed += rec.failed
	errs = append(errs, rec.errs...)

	for _, e := range errs {
		fmt.Fprintf(out, "FAILED: %s\n", e)
	}
	e2e := endToEnd(su, pu, aud, rec, attempted, failed)
	fmt.Fprintf(out, "phase: %d ops in %.3fs, %d cross-protocol checks (%d skipped for concurrent churn)\n",
		pu.ops, pu.elapsed.Seconds(), pu.crossOK, pu.crossSkip)
	for k, name := range kindNames {
		fmt.Fprintf(out, "%s latency (us):", name)
		for _, q := range []float64{0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999, 1} {
			fmt.Fprintf(out, " p%g=%.1f", q*100, float64(pu.lat[k].at(q).Value)/1e3)
		}
		fmt.Fprintf(out, " (%d samples); p99 per interval:", len(pu.lat[k]))
		for i := range pu.parts {
			fmt.Fprintf(out, " %.1f", float64(pu.parts[i][k].tail(0.99).Value)/1e3)
		}
		fmt.Fprintln(out)
	}
	printReport(out, "end-to-end", e2e)
	shown := e2e
	if o.trace {
		pl := perLayer(sys, pu, pt, rec)
		printReport(out, "per-layer (traced phase)", pl)
		shown = pl
		if err := pt.trace.writeSpans(o.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "spans written to %s\n", o.spans)
	}
	res := &result{Metrics: map[string]metricJSON{}}
	for _, m := range shown.ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Nothing was measured for it; the run cannot pass.
			fmt.Fprintf(out, "FAILED: metric %s is %v\n", m.Name, m.Value)
			m.Value = 0
			failed++
		}
		res.Metrics[m.Name] = metricJSON{Value: m.Value, Unit: m.Unit}
	}
	res.Correct, res.Attempted, res.Failed = failed == 0, attempted, failed
	return res, nil
}

// printReport prints one line per metric with its unit and note.
func printReport(out io.Writer, title string, r *report) {
	fmt.Fprintf(out, "-- %s\n", title)
	for _, m := range r.ms {
		fmt.Fprintf(out, "%-34s %16.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
}

// clientSeed derives client i's op-stream seed for one phase.
func clientSeed(seed uint64, i int) uint64 { return seed*0x9e3779b97f4a7c15 + uint64(i) + 1 }

// finalCrossChecks compares binary and JSON answers on the quiescent final
// state, where no churn can interleave.
func finalCrossChecks(sys *system, seed uint64) *client {
	sc := *sys.w.sc
	sc.Mix = benchkit.OpMix{Window: sc.Mix.Window, Next: sc.Mix.Next}
	cl := newClient(-2, sys, clientSeed(seed, 2000), time.Now(), time.Hour, 1)
	cl.gen = benchkit.NewOpGen(&sc, sys.sizes, clientSeed(seed, 2000))
	for i := 0; i < 64; i++ {
		cl.crossCheck(cl.gen.Next())
		cl.ops++
	}
	if cl.crossSkipped > 0 {
		cl.fail("%d final cross-checks saw the schedule change on a quiescent state", cl.crossSkipped)
	}
	return cl
}

// runPhase drives the clients for d after a full GC and returns what they
// measured. A traced phase records spans and times journal appends.
func runPhase(sys *system, seed uint64, d time.Duration, traced bool) (*phase, error) {
	clients := make([]*client, sys.w.clients)
	if traced {
		for ci, c := range sys.comms {
			s, err := c.Schedule()
			if err != nil {
				return nil, err
			}
			sys.seen[ci].first(s)
		}
	}
	p := &phase{}
	walSize := func() (int64, error) {
		if err := sys.store.Journal().(interface{ Sync() error }).Sync(); err != nil {
			return 0, err
		}
		fi, err := os.Stat(filepath.Join(sys.dataDir, "wal.jsonl"))
		if err != nil {
			return 0, err
		}
		return fi.Size(), nil
	}
	var wal0 int64
	if traced && sys.journal != nil {
		var err error
		if wal0, err = walSize(); err != nil {
			return nil, err
		}
	}
	flushDisks()
	settle()
	before := sys.counters()
	t0 := time.Now()
	for i := range clients {
		clients[i] = newClient(i, sys, clientSeed(seed, i), t0, d/intervals, intervals)
	}
	if traced {
		for _, cl := range clients {
			cl.tr = newClientTrace(cl.id, t0)
		}
		if sys.journal != nil {
			sys.journal.start(t0)
		}
	}
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.run(t0.Add(d))
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(t0)
	p.delta = sys.counters().sub(before)
	var all [numKinds]samples
	for i := range p.partLen {
		p.partLen[i] = d / intervals
	}
	p.partLen[intervals-1] = p.elapsed - (intervals-1)*(d/intervals)
	for _, cl := range clients {
		for i := range cl.lat {
			for k := range all {
				all[k] = append(all[k], cl.lat[i][k]...)
				p.parts[i][k] = append(p.parts[i][k], cl.lat[i][k]...)
			}
			p.partOK[i] += cl.okIn[i]
		}
		p.ops += cl.ops
		p.ok += cl.ok
		p.failed += cl.failed
		p.errs = append(p.errs, cl.errs...)
		p.writes += cl.ops - cl.reads
		p.crossOK += cl.crossChecked
		p.crossSkip += cl.crossSkipped
		if cl.tr != nil {
			p.requests += int64(cl.tr.nReq)
		}
	}
	for k := range all {
		p.lat[k] = all[k].sorted()
		for i := range p.parts {
			p.parts[i][k] = p.parts[i][k].sorted()
		}
	}
	if traced {
		td := &traceData{commIndex: map[string]int{}}
		for ci, c := range sys.comms {
			td.commIndex[c.ID()] = ci
		}
		for _, cl := range clients {
			td.clients = append(td.clients, cl.tr.spans)
		}
		if sys.journal != nil {
			sys.journal.stop()
			td.appends = sys.journal.spans
			wal1, err := walSize()
			if err != nil {
				return nil, err
			}
			p.walBytes = wal1 - wal0
			for _, a := range td.appends {
				p.walRecords += int64(a.records)
			}
		}
		p.trace = td
	}
	return p, nil
}

// recovery is what the end-of-run recovery measured.
type recovery struct {
	recoverS, loadS, saveS float64
	runs                   int
	// source describes what the timed recoveries read.
	source         string
	checks, failed int64
	errs           []string
}

// Recovery is timed at least minRecoveries and at most maxRecoveries
// times, stopping once recoverySpan has been spent; recover_s is the median.
const (
	minRecoveries = 3
	maxRecoveries = 7
	recoverySpan  = 2 * time.Second
)

// check compares every community of a recovered registry with the state
// it must have recovered to, recording a failure for each that differs.
func (rec *recovery) check(reg *service.Registry, want map[string]service.CommunityState, from string) {
	rec.checks += int64(len(want)) + 1
	for id, ws := range want {
		if c, ok := reg.Get(id); !ok || !sameState(c.Export(), ws) {
			rec.failed++
			rec.errs = append(rec.errs, fmt.Sprintf("community %s recovered from %s differently from its state before close", id, from))
		}
	}
	if got := len(reg.List()); got != len(want) {
		rec.failed++
		rec.errs = append(rec.errs, fmt.Sprintf("recovered %d communities from %s, want %d", got, from, len(want)))
	}
}

// exportAll returns every community's exported state by id.
func exportAll(comms []*service.Community) map[string]service.CommunityState {
	want := map[string]service.CommunityState{}
	for _, c := range comms {
		want[c.ID()] = c.Export()
	}
	return want
}

// recoverState closes the run's state and recovers it with persist.Open +
// Store.Load. A journaled workload first recovers the run's own WAL once,
// untimed, and checks it against the state before close; the run's WAL grows
// with the write rate, so the timed recoveries read a WAL of fixed length
// instead (see recoveryWAL). Other workloads time recoveries from an
// end-of-run SaveSnapshot. The first timed recovery is checked too.
func recoverState(sys *system, seed uint64) (*recovery, error) {
	rec := &recovery{}
	want := exportAll(sys.comms)
	saveSnapshot := func() (string, error) {
		dir, err := os.MkdirTemp("", "holidaybench-snap-*")
		if err != nil {
			return "", err
		}
		st, err := persist.Open(dir, persist.Options{})
		if err != nil {
			return dir, err
		}
		settle()
		t0 := time.Now()
		err = st.SaveSnapshot(sys.owner)
		rec.saveS = time.Since(t0).Seconds()
		return dir, errors.Join(err, st.Close())
	}
	var dir string
	if sys.store != nil {
		err := sys.store.Close()
		sys.store = nil
		if err != nil {
			return nil, err
		}
		st, err := persist.Open(sys.dataDir, persist.Options{})
		if err != nil {
			return nil, err
		}
		reg, err := st.Load()
		if err != nil {
			st.Close()
			return nil, err
		}
		rec.check(reg, want, "the run's WAL")
		if err := st.Close(); err != nil {
			return nil, err
		}
		// The snapshot is timed into a side directory so the run's WAL
		// stays as it was written.
		side, err := saveSnapshot()
		os.RemoveAll(side)
		if err != nil {
			return nil, err
		}
		var records int
		dir, want, records, err = recoveryWAL(sys, seed)
		defer os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		rec.source = fmt.Sprintf("a %d-record WAL: %d creates, then %d edits decided by the seed", records, len(sys.comms), sys.w.recoveryEdits)
	} else {
		var err error
		dir, err = saveSnapshot()
		defer os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		rec.source = "the end-of-run snapshot"
	}
	var total, load []float64
	var spent time.Duration
	for i := 0; i < maxRecoveries && (i < minRecoveries || spent < recoverySpan); i++ {
		settle()
		t0 := time.Now()
		st, err := persist.Open(dir, persist.Options{})
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		reg, err := st.Load()
		t2 := time.Now()
		if err != nil {
			st.Close()
			return nil, err
		}
		spent += t2.Sub(t0)
		total = append(total, t2.Sub(t0).Seconds())
		load = append(load, t2.Sub(t1).Seconds())
		if i == 0 {
			rec.check(reg, want, rec.source)
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	rec.recoverS, rec.loadS, rec.runs = median(total), median(load), len(total)
	return rec, nil
}

// recoveryWAL builds the journaled workload's communities afresh from the
// run's inputs, applies w.recoveryEdits churn edits drawn from the seed in
// ChurnBatch groups from a single client, and closes the journal. The WAL
// it leaves is the same for the same seed, whatever the run's write rate.
// It returns the WAL's directory, the state the WAL must recover to, and
// its record count.
func recoveryWAL(sys *system, seed uint64) (string, map[string]service.CommunityState, int, error) {
	side, err := build(sys.w, sys.ins, false)
	if err != nil {
		return "", nil, 0, err
	}
	dir := side.dataDir
	side.dataDir = "" // the caller removes it after the timed recoveries
	defer side.close()
	sc := *sys.w.sc
	sc.Mix = benchkit.OpMix{Marry: sc.Mix.Marry, Divorce: sc.Mix.Divorce}
	cl := newClient(-3, side, clientSeed(seed, 3000), time.Now(), time.Hour, 1)
	cl.gen = benchkit.NewOpGen(&sc, side.sizes, clientSeed(seed, 3000))
	for i := 0; i < sys.w.recoveryEdits; i++ {
		cl.step()
	}
	cl.run(time.Time{}) // flushes the open batches
	if cl.failed > 0 || cl.ops != int64(sys.w.recoveryEdits) {
		return dir, nil, 0, fmt.Errorf("recovery WAL: %d of %d edits applied: %v", cl.ops-cl.failed, sys.w.recoveryEdits, cl.errs)
	}
	want := exportAll(side.comms)
	err = side.store.Close()
	side.store = nil
	if err != nil {
		return dir, nil, 0, err
	}
	data, err := os.ReadFile(filepath.Join(dir, "wal.jsonl"))
	if err != nil {
		return dir, nil, 0, err
	}
	return dir, want, bytes.Count(data, []byte{'\n'}), nil
}

// endToEnd assembles the user-visible metrics of the untraced phase.
func endToEnd(su *setupResult, p *phase, aud auditResult, rec *recovery, attempted, failed int64) *report {
	r := &report{}
	r.add("throughput_ops_s", p.partThroughput(), "ops/s",
		fmt.Sprintf("median of %d intervals; %d ok ops in %.3fs", intervals, p.ok, p.elapsed.Seconds()))
	for k, name := range kindNames {
		r.quantileUS(name+"_p50_us", p.partQuantile(k, 0.5))
		r.quantileUS(name+"_p99_us", p.partQuantile(k, 0.99))
	}
	r.add("ops_ok_frac", float64(attempted-failed)/float64(max(attempted, 1)), "frac",
		fmt.Sprintf("%d failed of %d attempted (ops, audit checks, recovery checks)", failed, attempted))
	r.add("setup_s", su.setupS, "s", fmt.Sprintf("median of %d builds %v", len(su.setupRuns), roundAll(su.setupRuns)))
	r.add("heap_bytes_per_node", su.heapPer, "B", "live heap after GC over families")
	r.add("recover_s", rec.recoverS, "s", fmt.Sprintf("median of %d persist.Open+Store.Load of %s", rec.runs, rec.source))
	r.add("happy_share", float64(aud.happy)/float64(max(aud.slotDays, 1)), "frac", "happy entity-holidays over all, audit windows")
	r.add("max_gap_ratio", aud.maxRatio, "ratio", "largest observed wait over its bound")
	return r
}

// roundAll rounds set-up times to microseconds for display.
func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1e6) / 1e6
	}
	return out
}
