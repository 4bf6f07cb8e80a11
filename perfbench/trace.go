package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"offchip/internal/approx"
	"offchip/internal/core"
	"offchip/internal/ir"
	"offchip/internal/layout"
	"offchip/internal/noc"
	"offchip/internal/obs"
	"offchip/internal/runner"
	"offchip/internal/sim"
	"offchip/internal/sweepq"
	"offchip/internal/trace"
	"offchip/internal/tracecache"
	"offchip/internal/workloads"
)

// span is one call into a layer, recorded by the traced run. Times are
// nanoseconds since the recorder started; Parent is the enclosing span's
// ID (0 at the root). Mallocs and AllocBytes are runtime.MemStats deltas
// across the call, recorded only while a single goroutine runs layer
// calls. N is the call's work: accesses generated or decoded, engine
// events simulated.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Name       string `json:"name"`
	Job        string `json:"job,omitempty"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	Mallocs    uint64 `json:"mallocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	N          int64  `json:"n,omitempty"`
	InPass     bool   `json:"in_pass"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the traced run's spans in memory until the run ends.
type recorder struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	allocs bool // record MemStats deltas (single goroutine only)
	inPass bool // spans belong to a timed traced pass, not to set-up
}

type openSpan struct {
	r   *recorder
	i   int
	ms0 runtime.MemStats
}

func (r *recorder) begin(name, job string, parent int) *openSpan {
	o := &openSpan{r: r}
	if r.allocs {
		runtime.ReadMemStats(&o.ms0)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	o.i = len(r.spans)
	r.spans = append(r.spans, span{
		ID: o.i + 1, Parent: parent, Name: name, Job: job, InPass: r.inPass,
		Start: time.Since(r.t0).Nanoseconds(),
	})
	return o
}

func (o *openSpan) id() int { return o.i + 1 }

func (o *openSpan) end(n int64) {
	end := time.Since(o.r.t0).Nanoseconds()
	var ms runtime.MemStats
	if o.r.allocs {
		runtime.ReadMemStats(&ms)
	}
	o.r.mu.Lock()
	defer o.r.mu.Unlock()
	s := &o.r.spans[o.i]
	s.End, s.N = end, n
	if o.r.allocs {
		s.Mallocs = ms.Mallocs - o.ms0.Mallocs
		s.AllocBytes = ms.TotalAlloc - o.ms0.TotalAlloc
	}
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func accessCount(w *sim.Workload) int64 {
	var n int64
	for i := range w.Streams {
		n += int64(len(w.Streams[i].Accesses))
	}
	return n
}

// built is one application through the compiler pass and the trace
// generator, as core.Workloads builds it.
type built struct {
	p           *ir.Program
	store       *ir.DataStore
	res         *layout.Result
	identity    *layout.Result
	m           layout.Machine
	tOpt        trace.Options
	base, optim *sim.Workload
}

// buildApp is core.Workloads with a span around each layer call. A nil
// cache generates directly with trace.Generate, as core does.
func (b *bench) buildApp(app *workloads.App, m layout.Machine, cm *layout.ClusterMapping, opt core.Options, cache *tracecache.Cache, job string, parent int) (*built, error) {
	rec := b.rec
	sp := rec.begin("workloads.App.Load", job, parent)
	p, store, err := app.Load()
	sp.end(0)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("layout.Optimize", job, parent)
	res, err := layout.Optimize(p, m, cm, &layout.Options{
		Threads: opt.Threads,
		Approx:  approx.NewProfiler(store),
	})
	sp.end(0)
	if err != nil {
		return nil, err
	}
	capN := opt.MaxAccessesPerThread
	if capN == 0 {
		capN = trace.Unlimited
	}
	bl := &built{
		p: p, store: store, res: res, m: m,
		identity: &layout.Result{Program: p, Layouts: map[*ir.Array]*layout.ArrayLayout{}},
		tOpt:     trace.Options{Threads: opt.Threads, MaxAccessesPerThread: capN},
	}
	gen := func(r *layout.Result) (*sim.Workload, error) {
		name := "trace.Generate"
		if cache != nil {
			name = "tracecache.Cache.Generate"
		}
		sp := rec.begin(name, job, parent)
		w, err := cache.Generate(p, r, m, store, bl.tOpt)
		if err != nil {
			sp.end(0)
			return nil, err
		}
		n := accessCount(w)
		sp.end(n)
		return w, nil
	}
	if bl.base, err = gen(bl.identity); err != nil {
		return nil, err
	}
	if bl.optim, err = gen(res); err != nil {
		return nil, err
	}
	return bl, nil
}

// tracedMix is core.MixWorkloads with spans around each layer call.
func (b *bench) tracedMix(mix workloads.MixSpec, m layout.Machine, cm *layout.ClusterMapping, opt core.Options) (base, optim *sim.Workload, err error) {
	if err := mix.Validate(); err != nil {
		return nil, nil, err
	}
	root := b.rec.begin("core.MixWorkloads", mix.String(), 0)
	defer root.end(0)
	var bases, optims []*sim.Workload
	var rotates []int
	for _, e := range mix.Entries {
		app, _ := workloads.ByName(e.App)
		bl, err := b.buildApp(app, m, cm, opt, nil, mix.String(), root.id())
		if err != nil {
			return nil, nil, err
		}
		bases, optims = append(bases, bl.base), append(optims, bl.optim)
		rotates = append(rotates, e.Rotate)
	}
	compose := func(parts []*sim.Workload) (*sim.Workload, error) {
		sp := b.rec.begin("trace.ComposeMix", mix.String(), root.id())
		w, err := trace.ComposeMix(mix.String(), m.Cores(), parts, rotates)
		sp.end(0)
		return w, err
	}
	if base, err = compose(bases); err != nil {
		return nil, nil, err
	}
	optim, err = compose(optims)
	return base, optim, err
}

// tracedRun is sim.Run with a span; its result joins the simulated counts.
func (b *bench) tracedRun(job string, parent int, cfg sim.Config, w *sim.Workload) (*sim.Result, error) {
	sp := b.rec.begin("sim.Run", job, parent)
	r, err := sim.Run(cfg, w)
	if err != nil {
		sp.end(0)
		return nil, err
	}
	sp.end(r.Events)
	b.layers.addRun(r)
	return r, nil
}

// tracedJobResult is what one traced job produced.
type tracedJobResult struct {
	id       string
	wall     time.Duration
	accesses int64
	built    *built
}

// tracedJob runs one single-application job the way runner.Run does, with
// a span around every layer call, and checks its canonical output: the
// traced pipeline must reproduce the untraced digest exactly.
func (b *bench) tracedJob(spec runner.JobSpec, cache *tracecache.Cache) tracedJobResult {
	n := spec.Normalized()
	id := n.ID()
	t0 := time.Now()
	root := b.rec.begin("job", id, 0)
	canon, bl, runs, err := b.tracedJobRuns(n, cache, root.id())
	root.end(0)
	out := tracedJobResult{id: id, wall: time.Since(t0), built: bl}
	for _, r := range runs {
		out.accesses += r.Completed
	}
	b.ck.job(id, canon, err)
	return out
}

func (b *bench) tracedJobRuns(n runner.JobSpec, cache *tracecache.Cache, parent int) ([]byte, *built, []*sim.Result, error) {
	id := n.ID()
	app, ok := workloads.ByName(n.App)
	if !ok {
		return nil, nil, nil, fmt.Errorf("unknown application %q", n.App)
	}
	m, cm, opt, err := n.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	bl, err := b.buildApp(app, m, cm, opt, cache, id, parent)
	if err != nil {
		return nil, nil, nil, err
	}
	type simRun struct {
		cfg     sim.Config
		w       *sim.Workload
		optimal bool
	}
	cfg := core.SimConfig(m, cm, opt)
	cfg.Policy = opt.BaselinePolicy
	var runs []simRun
	switch n.Mode {
	case runner.ModeCompare:
		// core.Compare's three runs.
		optCfg := cfg
		if m.Interleave == layout.PageInterleave {
			optCfg.Policy = sim.PolicyOSAssisted
		}
		idealCfg := cfg
		idealCfg.OptimalOffchip = true
		idealCfg.Migrate = nil
		runs = []simRun{{cfg, bl.base, false}, {optCfg, bl.optim, false}, {idealCfg, bl.base, true}}
	case runner.ModeBaseline:
		runs = []simRun{{cfg, bl.base, false}}
	case runner.ModeOptimized:
		if m.Interleave == layout.PageInterleave {
			cfg.Policy = sim.PolicyOSAssisted
		}
		runs = []simRun{{cfg, bl.optim, false}}
	default:
		return nil, bl, nil, fmt.Errorf("traced pipeline does not run mode %q", n.Mode)
	}
	// Workloads requested versus distinct workloads simulated: compare
	// simulates both traces, baseline and optimized jobs only one.
	b.layers.generated += 2
	if n.Mode == runner.ModeCompare {
		b.layers.used += 2
	} else {
		b.layers.used++
	}
	var results []*sim.Result
	for _, sr := range runs {
		sr.cfg.Obs = obs.New()
		r, err := b.tracedRun(id, parent, sr.cfg, sr.w)
		if err != nil {
			return nil, bl, results, err
		}
		if err := conserved(r, sr.optimal); err != nil {
			return nil, bl, results, err
		}
		results = append(results, r)
	}
	out := &runner.JobOutcome{ID: id}
	if n.Mode == runner.ModeCompare {
		out.Comparison = &core.Comparison{
			Baseline:           metricsOf(results[0]),
			Optimized:          metricsOf(results[1]),
			Optimal:            metricsOf(results[2]),
			PctArraysOptimized: bl.res.PctArraysOptimized(),
			PctRefsSatisfied:   bl.res.PctRefsSatisfied(),
		}
	} else {
		out.Run = results[0]
	}
	canon, err := out.CanonicalJSON()
	return canon, bl, results, err
}

// metricsOf distills a run into core.Metrics exactly as core.Compare does;
// the digest check fails if the two ever disagree.
func metricsOf(r *sim.Result) core.Metrics {
	var q float64
	if r.MemServed != 0 {
		q = float64(r.MemQueue) / float64(r.MemServed)
	}
	return core.Metrics{
		ExecTime:       r.ExecTime,
		OnChipNetAvg:   r.AvgNetLatency(noc.OnChip),
		OffChipNetAvg:  r.AvgNetLatency(noc.OffChip),
		MemAvg:         r.AvgMemLatency(),
		QueueAvg:       q,
		OffChipShare:   r.OffChipShare(),
		AvgQueueOcc:    r.AvgQueueOcc,
		HopCDFOn:       r.HopCDF[noc.OnChip],
		HopCDFOff:      r.HopCDF[noc.OffChip],
		AccessMap:      r.AccessMap,
		AppExecTime:    r.AppExecTime,
		Migrations:     r.Migrations,
		MigCopyMsgs:    r.MigCopyMsgs,
		MigStallCycles: r.MigStallCycles,
	}
}

// decodeProbe reloads a traced job's two traces through a fresh
// disk-backed cache over the directory the job filled: the disk-hit path
// of tracecache, decode included.
func (b *bench) decodeProbe(j tracedJobResult, dir string) {
	bl := j.built
	if bl == nil {
		return
	}
	for _, r := range []*layout.Result{bl.identity, bl.res} {
		c, err := tracecache.New(dir)
		if err != nil {
			return
		}
		sp := b.rec.begin("tracecache.decode", j.id, 0)
		w, err := c.Generate(bl.p, r, bl.m, bl.store, bl.tOpt)
		if err != nil || c.Stats().DiskHits != 1 {
			sp.end(0)
			continue
		}
		sp.end(accessCount(w))
	}
}

// tracedFleet wraps the fleet as the runner's executor with a span around
// every Fleet.Execute, and measures each result's wire frame.
type tracedFleet struct {
	b *bench
	f *sweepq.Fleet
}

func (t *tracedFleet) Execute(spec runner.JobSpec) *runner.JobOutcome {
	id := spec.Normalized().ID()
	sp := t.b.rec.begin("sweepq.Fleet.Execute", id, 0)
	out := t.f.Execute(spec)
	sp.end(0)
	var cw countingWriter
	if sweepq.WriteFrame(&cw, sweepq.ResultOf(out)) == nil {
		t.b.layers.mu.Lock()
		t.b.layers.frameBytes += cw.n
		t.b.layers.frames++
		t.b.layers.mu.Unlock()
	}
	return out
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// layerAcc accumulates the traced run's per-layer counts that are not
// span durations.
type layerAcc struct {
	mu              sync.Mutex
	runs            []*sim.Result // every traced sim.Run of the first traced pass
	collect         bool
	generated, used int
	frameBytes      int64
	frames          int
	spawns, crashes int64
	inprocJobs      []time.Duration
}

func (l *layerAcc) addRun(r *sim.Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.collect {
		l.runs = append(l.runs, r)
	}
}
