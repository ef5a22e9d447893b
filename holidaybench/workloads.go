package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/benchkit"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/persist"
	"repro/internal/service"
)

// workload is one benchmark input family: the communities it creates, the
// op mix drawn over them, and how the ops reach the program.
type workload struct {
	name string
	// kind of every community (service.KindClassic or service.KindPoly).
	kind string
	// served sends every op through service.NewHandler(...).ServeHTTP on
	// an in-memory ResponseWriter (no sockets, so no loopback noise);
	// otherwise ops call Owner/Community methods directly.
	served bool
	// sc carries the communities and mix the benchkit op generator draws
	// from; it is the only source of ops.
	sc *benchkit.Scenario
	// churn is the fraction of ops that are marry or divorce.
	churn float64
	// clients is the closed-loop client count and the pinned GOMAXPROCS.
	clients int
	// setups is how many times the full state is built; setup_s is the
	// median.
	setups int
	// batch, when positive, groups churn per community into
	// Community.ChurnBatch calls of this many edits. A batch's own work then
	// sets the write percentiles, not the scheduling noise a lone edit is
	// exposed to.
	batch int
	// block partitions the communities among the clients: the list is
	// made of blocks of this many communities built from the same specs,
	// and client i owns the blocks whose index is i modulo the client
	// count. No op then waits on another client's community lock, and
	// every latency is the op's own work.
	block int
	// journal attaches a persist.Store WAL (SyncBatch, group commit every
	// walSyncInterval).
	journal bool
	// recoveryEdits is how many edits the WAL of the timed recoveries of a
	// journaled workload holds after the creates (see recoveryWAL).
	recoveryEdits int
}

// workloadNames lists the workloads in presentation order.
var workloadNames = []string{"poly-served", "durable-churn"}

// newWorkload builds the named workload at full or toy scale. Toy scale
// keeps every mechanism and shrinks every community, for tests.
func newWorkload(name string, toy bool) (*workload, error) {
	var w *workload
	switch name {
	case "poly-served":
		// Poly communities of a few hundred to ~2k families under both
		// scheduler codes. Demands of 256 leave room for the layers churn
		// adds over a run, so every edge keeps its layer's period. Graphs
		// have at least as many edges as families, which keeps next-happy
		// slot ids in range (see benchkit.CommunitySpec).
		specs := []string{"gnp:n=2000,p=0.004", "gnp:n=1600,p=0.005", "gnp:n=1200,p=0.007", "gnp:n=900,p=0.009",
			"gnp:n=600,p=0.014", "gnp:n=400,p=0.02", "cycle:n=300", "cycle:n=300"}
		if toy {
			specs = []string{"gnp:n=200,p=0.04", "cycle:n=64"}
		}
		block := len(specs)
		specs = append(specs, specs...)
		sc := &benchkit.Scenario{
			Name:       name,
			Mix:        benchkit.OpMix{Window: 55, Next: 35, Marry: 1, Divorce: 1},
			WindowSpan: 52,
			Horizon:    1 << 30,
		}
		for i, spec := range specs {
			code := "layering"
			if i%2 == 1 {
				code = "bucketed"
			}
			sc.Communities = append(sc.Communities, benchkit.CommunitySpec{
				ID: fmt.Sprintf("poly-%d", i), Spec: spec, Kind: service.KindPoly, Code: code, DefaultDemand: 256,
			})
		}
		w = &workload{name: name, kind: service.KindPoly, served: true, sc: sc, churn: 0.10, block: block}
	case "durable-churn":
		// Classic communities of a few hundred to ~4k families, half of
		// all ops churn, journaled to a real WAL. Windows are small, so
		// freeze and window work stay cheap next to append and repair.
		specs := []string{"gnp:n=4000,p=0.002", "powerlaw:n=3000,m=3", "gnp:n=2000,p=0.004",
			"powerlaw:n=1000,m=3", "cycle:n=600", "powerlaw:n=300,m=2"}
		copies := 8
		if toy {
			specs, copies = []string{"gnp:n=300,p=0.02", "cycle:n=64"}, 2
		}
		sc := &benchkit.Scenario{
			Name:       name,
			Mix:        benchkit.OpMix{Window: 1, Next: 1, Marry: 1, Divorce: 1},
			WindowSpan: 8,
			Horizon:    1 << 30,
		}
		for k := 0; k < copies; k++ {
			for i, spec := range specs {
				sc.Communities = append(sc.Communities, benchkit.CommunitySpec{ID: fmt.Sprintf("c%d-%d", k, i), Spec: spec})
			}
		}
		w = &workload{name: name, kind: service.KindClassic, sc: sc, churn: 0.5, batch: 16, block: len(specs), journal: true,
			recoveryEdits: 1 << 16}
		if toy {
			w.recoveryEdits = 1 << 9
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
	}
	sc, err := w.sc.WithChurnFraction(w.churn)
	if err != nil {
		return nil, err
	}
	w.sc = sc
	w.clients = 2
	if n := len(sc.Communities); n%w.block != 0 || (n/w.block)%w.clients != 0 {
		return nil, fmt.Errorf("workload %s: %d communities do not split into blocks of %d for %d clients", name, n, w.block, w.clients)
	}
	w.setups = 7
	if toy {
		w.setups = 2
	}
	return w, nil
}

// walSyncInterval is the group-commit interval of the journaled workload,
// under holidayd's default SyncBatch policy. It is longer than any run, so
// the WAL is fsynced at Close and never during a measured phase. The WAL
// holds its lock across each fsync, and on a 2-vCPU VM with a shared
// virtual disk that put one to two writes in a hundred behind a disk flush
// at any interval (at holidayd's default 5ms and at 1s alike), which moved
// write_p99 threefold between runs of the same program. Appends, their
// encoding and the group-commit buffering are still measured, and recovery
// still replays the real file.
const walSyncInterval = 10 * time.Minute

// input is one generated community: the families, initial marriages and,
// for poly communities, the create request body the handler receives.
type input struct {
	id         string
	n          int
	edges      [][2]int
	createBody []byte
}

// makeInputs generates every community's graph from the seed. This is the
// only place graphs are made; the program receives them as plain inputs.
func makeInputs(w *workload, seed uint64) ([]input, error) {
	ins := make([]input, len(w.sc.Communities))
	for i, cs := range w.sc.Communities {
		g, err := graph.ParseSpec(cs.Spec, seed+uint64(i))
		if err != nil {
			return nil, fmt.Errorf("community %s: %w", cs.ID, err)
		}
		in := input{id: cs.ID, n: g.N(), edges: make([][2]int, 0, g.M())}
		for _, e := range g.Edges() {
			in.edges = append(in.edges, [2]int{e.U, e.V})
		}
		if w.served {
			in.createBody, err = json.Marshal(map[string]any{
				"id": cs.ID, "families": in.n, "edges": in.edges,
				"kind": cs.Kind, "code": cs.Code, "default_demand": cs.DefaultDemand,
			})
			if err != nil {
				return nil, err
			}
		}
		ins[i] = in
	}
	return ins, nil
}

// system is one built instance of a workload's state.
type system struct {
	w        *workload
	ins      []input
	owner    *service.Owner
	comms    []*service.Community
	sizes    []int
	families int
	handler  http.Handler
	store    *persist.Store
	dataDir  string
	// journal wraps the store's WAL in traced runs (nil otherwise).
	journal *timingJournal
	// seen tracks, per community, the last frozen schedule a traced call
	// returned: a new one means that call's Schedule() froze.
	seen []schedSeen
}

// build creates the full state of a workload: the journal (if any), every
// community, and the first freeze of each. It is what setup_s times.
func build(w *workload, ins []input, traced bool) (*system, error) {
	sys := &system{w: w, ins: ins}
	opts := service.Opts{}
	if w.journal {
		dir, err := os.MkdirTemp("", "holidaybench-wal-*")
		if err != nil {
			return nil, err
		}
		sys.dataDir = dir
		store, err := persist.Open(dir, persist.Options{SyncInterval: walSyncInterval})
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.store = store
		opts.Journal = store.Journal()
		if traced {
			bj, ok := store.Journal().(service.BatchJournal)
			if !ok {
				sys.close()
				return nil, fmt.Errorf("persist journal has no batch append")
			}
			sys.journal = &timingJournal{inner: bj}
			opts.Journal = sys.journal
		}
	}
	sys.owner = service.New(opts)
	if w.served {
		sys.handler = service.NewHandler(service.HandlerOpts{Owner: sys.owner})
	}
	for _, in := range ins {
		var c *service.Community
		var err error
		if w.served {
			c, err = sys.createHTTP(in)
		} else {
			c, err = sys.owner.Create(in.id, in.n, in.edges, "")
		}
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("create %s: %w", in.id, err)
		}
		sys.comms = append(sys.comms, c)
		sys.sizes = append(sys.sizes, in.n)
		sys.families += in.n
	}
	for _, c := range sys.comms {
		if _, err := c.Schedule(); err != nil {
			sys.close()
			return nil, err
		}
	}
	sys.seen = make([]schedSeen, len(sys.comms))
	return sys, nil
}

// createHTTP creates a community through POST /v1/communities.
func (sys *system) createHTTP(in input) (*service.Community, error) {
	var rw memWriter
	req, err := http.NewRequest("POST", "http://holidayd/v1/communities", bytes.NewReader(in.createBody))
	if err != nil {
		return nil, err
	}
	sys.handler.ServeHTTP(&rw, req)
	if rw.code != http.StatusCreated {
		return nil, fmt.Errorf("status %d: %s", rw.code, rw.body)
	}
	c, ok := sys.owner.Get(in.id)
	if !ok {
		return nil, fmt.Errorf("created community %s is not registered", in.id)
	}
	return c, nil
}

// close releases the journal and its data directory.
func (sys *system) close() {
	if sys.store != nil {
		_ = sys.store.Close() // the state is being discarded
		sys.store = nil
	}
	if sys.dataDir != "" {
		os.RemoveAll(sys.dataDir)
		sys.dataDir = ""
	}
}

// settle collects garbage until the heap stops shrinking, so a timed phase
// or a heap reading starts from the same state every run.
func settle() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setupResult is what the set-up stage measured.
type setupResult struct {
	sys       *system
	setupS    float64
	setupRuns []float64
	heapPer   float64
}

// setup builds the workload's state w.setups times and keeps the last; the
// earlier ones are discarded. Each build starts after a full GC.
func setup(w *workload, seed uint64, traced bool) (*setupResult, error) {
	ins, err := makeInputs(w, seed)
	if err != nil {
		return nil, err
	}
	res := &setupResult{}
	for i := 0; i < w.setups; i++ {
		base := settle()
		t0 := time.Now()
		sys, err := build(w, ins, traced)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		res.setupRuns = append(res.setupRuns, d.Seconds())
		if i < w.setups-1 {
			sys.close()
			continue
		}
		res.sys = sys
		heap := settle()
		res.heapPer = float64(int64(heap)-int64(base)) / float64(sys.families)
	}
	res.setupS = median(res.setupRuns)
	return res, nil
}

// counters sums the service-layer counters of every community.
type counters struct {
	hits, misses, versions, repairs int64
}

func (sys *system) counters() counters {
	var c counters
	for _, cm := range sys.comms {
		st := cm.Stats()
		c.hits += st.CacheHits
		c.misses += st.CacheMisses
		c.versions += st.Version
		c.repairs += st.Recolorings
	}
	return c
}

func (c counters) sub(o counters) counters {
	return counters{c.hits - o.hits, c.misses - o.misses, c.versions - o.versions, c.repairs - o.repairs}
}

// edit converts a churn op to the core edit vocabulary.
func edit(op benchkit.Op) core.Edit {
	e := core.Edit{Op: core.EditInsert, U: op.U, V: op.V}
	if op.Kind == benchkit.OpDivorce {
		e.Op = core.EditDelete
	}
	return e
}
