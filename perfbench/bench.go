package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"offchip/internal/sim"
)

// A run sets up at least minSetups times and until setupFor has passed,
// at most maxSetups times; setup_s is the median.
const (
	minSetups = 3
	maxSetups = 9
	setupFor  = 2 * time.Second
)

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	size     size
	golden   map[string]string
	outDir   string // spans, profiles and per-run scratch files go here
}

// bench is the state of one run.
type bench struct {
	cfg      config
	ck       *checker
	log      io.Writer
	dir      string    // this run's scratch directory, removed at the end
	rec      *recorder // nil unless tracing
	layers   layerAcc
	profiles []string // CPU profiles of the traced passes (this process and fleet workers)
}

// run executes one benchmark run and returns its result line.
func run(cfg config, log io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{cfg: cfg, ck: newChecker(cfg.golden, log), log: log, dir: dir}
	w, err := newWorkload(b)
	if err != nil {
		return nil, err
	}
	host := hostFacts{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: procs(), GoVersion: runtime.Version(),
		SourceHash: sourceHash(), GitRev: gitRev(),
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
	}
	var m map[string]metric
	if cfg.trace {
		m, err = b.layerRun(w)
	} else {
		m, err = b.timedRun(w)
	}
	if err != nil {
		return nil, err
	}
	return &result{
		Correct:   b.ck.failed == 0,
		Attempted: b.ck.attempted,
		Failed:    b.ck.failed,
		Metrics:   m,
		host:      host,
		digests:   b.ck.seen,
	}, nil
}

// measure runs passes until cfg.seconds have elapsed (at least one).
func (b *bench) measure(pass func() (*passStats, error)) ([]*passStats, error) {
	var out []*passStats
	t0 := time.Now()
	for len(out) == 0 || time.Since(t0).Seconds() < b.cfg.seconds {
		collect()
		ps, err := pass()
		if err != nil {
			return nil, err
		}
		out = append(out, ps)
		fmt.Fprintf(b.log, "perfbench: pass %d: wall %.3f s, cpu %.3f s, %d jobs\n", len(out), ps.wall.Seconds(), ps.cpu.Seconds(), len(ps.jobs))
	}
	return out, nil
}

// timedRun is the measured run: set-up several times, then untraced
// passes for the run's duration, then the untimed cross-checks.
func (b *bench) timedRun(w workload) (map[string]metric, error) {
	var setups []float64
	start := time.Now()
	for len(setups) < minSetups || (len(setups) < maxSetups && time.Since(start) < setupFor) {
		collect()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	passes, err := b.measure(w.pass)
	if err != nil {
		return nil, err
	}
	rss := selfMaxRSS() // before the cross-checks, which are not the workload
	if err := w.verify(); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	var walls, cpus, rates []float64
	var childRSS int64
	for _, ps := range passes {
		walls = append(walls, ps.wall.Seconds())
		cpus = append(cpus, ps.cpu.Seconds())
		rates = append(rates, float64(ps.accesses)/ps.wall.Seconds())
		childRSS = max(childRSS, ps.childRSS)
	}
	jobs := jobMedians(passes)
	fmt.Fprintf(b.log, "perfbench: %d passes; job percentiles over %d jobs, each its median over the passes\n", len(passes), len(jobs))
	return map[string]metric{
		"wall_s":             {median(walls), uS},
		"cpu_s":              {median(cpus), uS},
		"sim_accesses_per_s": {median(rates), uRate},
		"job_p50_ms":         {quantile(jobs, 0.50), uMS},
		"job_p90_ms":         {quantile(jobs, 0.90), uMS},
		"peak_rss_mb":        {float64(rss+childRSS) / 1024, uMB},
		"setup_s":            {median(setups), uS},
	}, nil
}

// jobMedians returns each job's median wall over the passes, in ms. Every
// pass runs the same jobs in spec order. Taking the percentiles over these
// medians, not over the pooled samples, keeps a pass that the host slowed
// from filling the top decile with its jobs.
func jobMedians(passes []*passStats) []float64 {
	out := make([]float64, len(passes[0].jobs))
	walls := make([]float64, len(passes))
	for i := range out {
		for k, ps := range passes {
			walls[k] = float64(ps.jobs[i]) / float64(time.Millisecond)
		}
		out[i] = median(walls)
	}
	return out
}

// layerRun is the traced run: one set-up (traced where it calls
// layers), one untraced pass for the tracing overhead, then traced passes
// for the run's duration under a CPU profile, then the cross-checks.
func (b *bench) layerRun(w workload) (map[string]metric, error) {
	b.rec = &recorder{t0: time.Now(), allocs: true}
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	collect()
	plain, err := w.pass()
	if err != nil {
		return nil, err
	}
	prof := filepath.Join(b.dir, "cpu.pprof")
	f, err := os.Create(prof)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	b.rec.inPass = true
	b.layers.collect = true
	passes, err := b.measure(func() (*passStats, error) {
		ps, err := w.tracedPass()
		b.layers.collect = false // the simulated counts are one pass's
		return ps, err
	})
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	b.profiles = append(b.profiles, prof)
	if err := w.verify(); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	m, err := b.layerMetrics(plain, passes)
	if err != nil {
		return nil, err
	}
	spans := filepath.Join(b.cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.cfg.workload, b.cfg.seed))
	if err := b.rec.write(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "perfbench: %d spans written to %s\n", len(b.rec.spans), spans)
	return m, nil
}

// layerMetrics turns the traced run's spans, counts and profiles into the
// per-layer metrics.
func (b *bench) layerMetrics(plain *passStats, passes []*passStats) (map[string]metric, error) {
	np := float64(len(passes))
	type agg struct {
		calls       int
		dur         time.Duration
		n           int64
		mallocs     uint64
		passDur     time.Duration // inside timed traced passes only
		passN       int64
		passMallocs uint64
	}
	by := map[string]*agg{}
	for i := range b.rec.spans {
		s := &b.rec.spans[i]
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.calls++
		a.dur += s.dur()
		a.n += s.N
		a.mallocs += s.Mallocs
		if s.InPass {
			a.passDur += s.dur()
			a.passN += s.N
			a.passMallocs += s.Mallocs
		}
	}
	get := func(name string) *agg {
		if a := by[name]; a != nil {
			return a
		}
		return &agg{}
	}
	perCallMS := func(name string) float64 {
		a := get(name)
		return float64(a.dur) / float64(time.Millisecond) / float64(a.calls)
	}
	gen, simr, dec := get("trace.Generate"), get("sim.Run"), get("tracecache.decode")
	out := map[string]metric{}
	set := func(name string, v float64) {
		for _, d := range perLayer {
			if d.name == name {
				out[name] = metric{finite(v), d.unit}
				return
			}
		}
		panic("perfbench: undeclared per-layer metric " + name)
	}
	set("workloads.load_ms", perCallMS("workloads.App.Load"))
	set("layout.optimize_ms", perCallMS("layout.Optimize"))
	set("trace.generate_s", gen.passDur.Seconds()/np)
	set("trace.ns_per_access", float64(gen.dur)/float64(gen.n))
	set("trace.allocs_per_access", float64(gen.mallocs)/float64(gen.n))
	set("trace.used_ratio", float64(b.layers.used)/float64(b.layers.generated))
	set("trace.compose_ms", perCallMS("trace.ComposeMix"))
	set("tracecache.decode_ns_per_access", float64(dec.dur)/float64(dec.n))
	set("sim.run_s", simr.passDur.Seconds()/np)
	set("sim.events", float64(simr.passN)/np)
	set("sim.ns_per_event", float64(simr.passDur)/float64(simr.passN))
	set("sim.allocs_per_event", float64(simr.passMallocs)/float64(simr.passN))

	shares, err := cpuShares(b.profiles)
	if err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		if mod, ok := strings.CutPrefix(d.name, "cpu."); ok {
			set(d.name, shares[mod])
		}
	}

	var t sim.Result
	for _, r := range b.layers.runs {
		t.Total += r.Total
		t.L1Hits += r.L1Hits
		t.OffChip += r.OffChip
		t.NetMsgs[0] += r.NetMsgs[0]
		t.NetMsgs[1] += r.NetMsgs[1]
		t.NetHops[0] += r.NetHops[0]
		t.NetHops[1] += r.NetHops[1]
		t.MemServed += r.MemServed
		t.RowHits += r.RowHits
		t.MemQueue += r.MemQueue
		t.Migrations += r.Migrations
		t.MigCopyMsgs += r.MigCopyMsgs
		t.MigStallCycles += r.MigStallCycles
	}
	msgs := t.NetMsgs[0] + t.NetMsgs[1]
	set("cache.l1_hit_ratio", float64(t.L1Hits)/float64(t.Total))
	set("cache.offchip_share", float64(t.OffChip)/float64(t.Total))
	set("noc.msgs", float64(msgs))
	set("noc.hops_per_msg", float64(t.NetHops[0]+t.NetHops[1])/float64(msgs))
	set("dram.served", float64(t.MemServed))
	set("dram.row_hit_ratio", float64(t.RowHits)/float64(t.MemServed))
	set("dram.queue_wait_cycles", float64(t.MemQueue))
	set("mem.migrations", float64(t.Migrations))
	set("mem.copy_msgs", float64(t.MigCopyMsgs))
	set("mem.stall_cycles", float64(t.MigStallCycles))

	set("runner.overhead_ms_per_job", float64(plain.runnerIdle)/float64(time.Millisecond)/float64(len(plain.jobs)))
	fleet := get("sweepq.Fleet.Execute")
	var inproc time.Duration
	for _, d := range b.layers.inprocJobs {
		inproc += d
	}
	overhead := 0.0
	if fleet.calls > 0 && len(b.layers.inprocJobs) > 0 {
		overhead = (float64(fleet.dur)/float64(fleet.calls) - float64(inproc)/float64(len(b.layers.inprocJobs))) / float64(time.Millisecond)
	}
	set("sweepq.overhead_ms_per_job", overhead)
	set("sweepq.result_frame_kb", float64(b.layers.frameBytes)/1024/float64(b.layers.frames))
	set("sweepq.spawns", float64(b.layers.spawns)/np)
	set("sweepq.crashes", float64(b.layers.crashes)/np)

	var walls []float64
	for _, ps := range passes {
		walls = append(walls, ps.wall.Seconds())
	}
	set("bench.tracing_overhead_pct", 100*(median(walls)/plain.wall.Seconds()-1))
	return out, nil
}

// collect runs the garbage collector, untimed, before each set-up and
// pass, so that each starts from the same heap: what earlier ones left
// behind neither inflates the peak RSS nor costs the next one a collection.
func collect() { runtime.GC() }

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
