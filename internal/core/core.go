// Package core is the library façade: it wires the compiler pass
// (internal/layout with internal/approx), the trace generator, and the
// manycore simulator into the three runs every experiment compares —
// baseline (original layouts), optimized (the paper's transformation), and
// the Section 2 optimal scheme — and distills the simulator output into the
// metrics the paper's figures report.
package core

import (
	"fmt"
	"sync"

	"offchip/internal/approx"
	"offchip/internal/check"
	"offchip/internal/ir"
	"offchip/internal/layout"
	"offchip/internal/mem"
	"offchip/internal/noc"
	"offchip/internal/obs"
	"offchip/internal/prof"
	"offchip/internal/sim"
	"offchip/internal/trace"
	"offchip/internal/tracecache"
	"offchip/internal/workloads"
)

// Options tunes an experiment run.
type Options struct {
	// Threads is the total software thread count (0: one per core).
	Threads int
	// MaxAccessesPerThread caps trace length. Zero means full (unsampled)
	// traces: experiments need identical iteration coverage in the
	// baseline and optimized runs so that miss counts stay comparable.
	MaxAccessesPerThread int
	// BaselinePolicy is the page policy of the baseline run under page
	// interleaving (default PolicyInterleaved; PolicyFirstTouch for the
	// Section 6.3 comparison).
	BaselinePolicy sim.PolicyKind
	// MLPWindow overrides the per-core outstanding-miss window (0: default).
	MLPWindow int
	// BanksPerMC overrides the DRAM bank count per controller (0: the
	// calibrated default). The M1-vs-M2 experiments (Figures 17/18) use the
	// paper's nominal 4 banks per device, the bank-scarce regime the
	// locality-vs-MLP trade-off is about.
	BanksPerMC int
	// Contention disables NoC link contention when explicitly set false
	// via NoContention (ablation).
	NoContention bool
	// Seed forwards to sim.Config.Seed: it decorrelates the deterministic
	// per-access jitter stream between runs. Zero (the default) keeps the
	// historical stream every recorded figure uses.
	Seed uint64
	// Concurrent runs the three simulations (baseline, optimized, optimal)
	// on separate goroutines. Results are bit-identical to the sequential
	// order — the simulations share no mutable state — so this is purely a
	// wall-clock lever for multi-core hosts.
	Concurrent bool
	// Check attaches a fresh invariant checker (internal/check) to each of
	// the three runs; per-run violations land in Comparison.Checks. The
	// probes cost a few percent of runtime, so experiments leave this off
	// and `offchip -check` / `make validate` turn it on.
	Check bool
	// Prof attaches a fresh latency-attribution profiler (internal/prof)
	// to each of the three runs; per-run profiles land in
	// Comparison.Profiles. Like Check, it rides the probe surfaces and is
	// off by default.
	Prof bool
	// Observer, when set, supplies the observability sink for each of the
	// three runs ("baseline", "optimized", "optimal") — the hook the CLI
	// uses to attach a tracer to one run. When it returns nil (or is unset)
	// the run still gets a fresh registry-backed observer.
	Observer func(run string) *obs.Observer
	// OnProgress and ProgressEvery forward to sim.Config for live reporting;
	// the run name is prepended so interleaved runs stay distinguishable.
	OnProgress    func(run string, p sim.Progress)
	ProgressEvery int64
	// TraceCache, when set, memoizes trace generation across runs and jobs
	// (see internal/tracecache): each per-core stream is generated once per
	// (program, threads, cap, machine, layout fingerprint) and shared.
	// Cached streams are byte-identical to freshly generated ones, so the
	// cache is purely a wall-clock lever. Nil disables caching.
	TraceCache *tracecache.Cache
	// Migrate, when set, attaches the online hot-page migration engine to
	// the baseline and optimized runs (never the optimal scheme, which
	// already serves every request from the nearest controller). Requires
	// page interleaving; see mem.MigrationSpec. Nil (the default) keeps the
	// static policies bit-identical to their historical results.
	Migrate *mem.MigrationSpec
}

// Metrics distills one simulation run.
type Metrics struct {
	ExecTime      int64
	OnChipNetAvg  float64 // mean network latency of on-chip accesses
	OffChipNetAvg float64 // mean network latency of off-chip accesses
	MemAvg        float64 // mean off-chip memory latency (queue + service)
	QueueAvg      float64 // mean off-chip queue wait (the Figure 14 mechanism)
	OffChipShare  float64 // fraction of accesses served off-chip (Figure 3)
	AvgQueueOcc   float64 // mean bank-queue occupancy (Figure 18)
	HopCDFOn      []float64
	HopCDFOff     []float64
	AccessMap     [][]int64 // [node][mc] off-chip requests (Figure 13)
	AppExecTime   map[int]int64

	// Online page migration (zero unless Options.Migrate fired).
	Migrations     int64
	MigCopyMsgs    int64
	MigStallCycles int64
}

func queueAvg(r *sim.Result) float64 {
	if r.MemServed == 0 {
		return 0
	}
	return float64(r.MemQueue) / float64(r.MemServed)
}

func distill(r *sim.Result) Metrics {
	return Metrics{
		ExecTime:       r.ExecTime,
		OnChipNetAvg:   r.AvgNetLatency(noc.OnChip),
		OffChipNetAvg:  r.AvgNetLatency(noc.OffChip),
		MemAvg:         r.AvgMemLatency(),
		QueueAvg:       queueAvg(r),
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

// Comparison is the outcome of running one application three ways.
type Comparison struct {
	App       string
	Machine   layout.Machine
	Mapping   string
	Baseline  Metrics
	Optimized Metrics
	Optimal   Metrics

	// Observers holds each run's observability layer ("baseline",
	// "optimized", "optimal") — the registries the -report dashboard and
	// -metrics dump read from.
	Observers map[string]*obs.Observer

	// Checks holds each run's invariant violations (Options.Check only;
	// nil slices mean the run was clean).
	Checks map[string][]check.Violation

	// Profiles holds each run's latency attribution (Options.Prof only).
	Profiles map[string]*prof.Profile

	// Compiler statistics (Table 2).
	PctArraysOptimized float64
	PctRefsSatisfied   float64
}

// Improvement helpers: fractional reduction of the optimized run vs the
// baseline for the four Figure 14/16 metrics.

// ExecImprovement returns 1 − T_opt/T_base.
func (c *Comparison) ExecImprovement() float64 {
	return improvement(float64(c.Baseline.ExecTime), float64(c.Optimized.ExecTime))
}

// OnChipNetImprovement returns the on-chip network latency reduction.
func (c *Comparison) OnChipNetImprovement() float64 {
	return improvement(c.Baseline.OnChipNetAvg, c.Optimized.OnChipNetAvg)
}

// OffChipNetImprovement returns the off-chip network latency reduction.
func (c *Comparison) OffChipNetImprovement() float64 {
	return improvement(c.Baseline.OffChipNetAvg, c.Optimized.OffChipNetAvg)
}

// MemImprovement returns the off-chip memory latency reduction.
func (c *Comparison) MemImprovement() float64 {
	return improvement(c.Baseline.MemAvg, c.Optimized.MemAvg)
}

// QueueImprovement returns the off-chip queue-wait reduction — the paper's
// stated mechanism behind the Figure 14/16 memory latency bars ("as a
// result of the reduction in queuing latency").
func (c *Comparison) QueueImprovement() float64 {
	return improvement(c.Baseline.QueueAvg, c.Optimized.QueueAvg)
}

// OptimalExecImprovement returns the Section 2 bound: 1 − T_optimal/T_base.
func (c *Comparison) OptimalExecImprovement() float64 {
	return improvement(float64(c.Baseline.ExecTime), float64(c.Optimal.ExecTime))
}

func improvement(base, opt float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - opt) / base
}

// SimConfig assembles the simulator configuration for the machine/mapping.
// Cache capacities are scaled down from Table 1 in proportion to the
// synthetic kernels' footprints (a few MB instead of the paper's 124 MB to
// 1.9 GB inputs), so that working sets exceed the aggregate L2 the way the
// real applications exceeded the real 16 MB — the off-chip access share
// (Figure 3) depends on that ratio, not on absolute sizes.
func SimConfig(m layout.Machine, cm *layout.ClusterMapping, opt Options) sim.Config {
	cfg := sim.DefaultConfig(m, cm)
	cfg.L1Bytes = 2 << 10
	cfg.L2Bytes = 8 << 10
	if m.L2 == layout.SharedL2 {
		// A shared SNUCA cache holds each line once; private L2s replicate
		// shared lines. With the footprint-scaled capacities this is worth
		// roughly a doubling of effective per-bank capacity.
		cfg.L2Bytes = 16 << 10
	}
	cfg.DRAM.RowBytes = 1 << 10
	if opt.MLPWindow > 0 {
		cfg.MLPWindow = opt.MLPWindow
	}
	if opt.BanksPerMC > 0 {
		cfg.DRAM.BanksPerMC = opt.BanksPerMC
	}
	if opt.NoContention {
		cfg.NoC.Contention = false
	}
	cfg.Seed = opt.Seed
	cfg.Migrate = opt.Migrate
	return cfg
}

// Workloads builds the baseline and optimized traces for an application.
// The baseline uses identity layouts; the optimized one runs the full pass
// with the Section 5.4 profiler.
func Workloads(app *workloads.App, m layout.Machine, cm *layout.ClusterMapping, opt Options) (base, optim *sim.Workload, res *layout.Result, err error) {
	p, store, err := app.Load()
	if err != nil {
		return nil, nil, nil, err
	}
	res, err = layout.Optimize(p, m, cm, &layout.Options{
		Threads: opt.Threads,
		Approx:  approx.NewProfiler(store),
	})
	if err != nil {
		return nil, nil, nil, err
	}
	cap := opt.MaxAccessesPerThread
	if cap == 0 {
		cap = trace.Unlimited
	}
	tOpt := trace.Options{Threads: opt.Threads, MaxAccessesPerThread: cap}
	identity := &layout.Result{Program: p, Layouts: map[*ir.Array]*layout.ArrayLayout{}}
	// A nil TraceCache degrades to plain trace.Generate (tracecache handles
	// the nil receiver), so the uncached path is unchanged.
	base, err = opt.TraceCache.Generate(p, identity, m, store, tOpt)
	if err != nil {
		return nil, nil, nil, err
	}
	optim, err = opt.TraceCache.Generate(p, res, m, store, tOpt)
	if err != nil {
		return nil, nil, nil, err
	}
	return base, optim, res, nil
}

// MixWorkloads builds the baseline and optimized composed workloads for a
// phase-changing multiprogrammed mix: each entry's application goes through
// the same pass-and-generate pipeline as Workloads (sharing the trace cache
// when one is attached), and the per-app workloads are then composed
// phase-major with the entries' core rotations (trace.ComposeMix). The
// baseline composition interleaves identity-layout traces; the optimized
// one composes the transformed traces, so OS-assisted placement still sees
// each app's desired controllers.
func MixWorkloads(mix workloads.MixSpec, m layout.Machine, cm *layout.ClusterMapping, opt Options) (base, optim *sim.Workload, err error) {
	if err := mix.Validate(); err != nil {
		return nil, nil, err
	}
	var bases, optims []*sim.Workload
	var rotates []int
	for _, e := range mix.Entries {
		app, _ := workloads.ByName(e.App)
		b, o, _, err := Workloads(app, m, cm, opt)
		if err != nil {
			return nil, nil, fmt.Errorf("core: mix entry %s: %w", e.App, err)
		}
		bases, optims = append(bases, b), append(optims, o)
		rotates = append(rotates, e.Rotate)
	}
	name := mix.String()
	base, err = trace.ComposeMix(name, m.Cores(), bases, rotates)
	if err != nil {
		return nil, nil, err
	}
	optim, err = trace.ComposeMix(name, m.Cores(), optims, rotates)
	if err != nil {
		return nil, nil, err
	}
	return base, optim, nil
}

// Compare runs the application three ways on the machine: baseline,
// optimized, and the optimal scheme (on the baseline trace).
func Compare(app *workloads.App, m layout.Machine, cm *layout.ClusterMapping, opt Options) (*Comparison, error) {
	baseW, optW, res, err := Workloads(app, m, cm, opt)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", app.Name, err)
	}

	observers := map[string]*obs.Observer{}
	checkers := map[string]*check.Checker{}
	profilers := map[string]*prof.Profiler{}
	attach := func(cfg *sim.Config, run string) {
		var o *obs.Observer
		if opt.Observer != nil {
			o = opt.Observer(run)
		}
		o = obs.OrNew(o)
		observers[run] = o
		cfg.Obs = o
		if opt.Check {
			ck := check.New()
			checkers[run] = ck
			cfg.Check = ck
		}
		if opt.Prof {
			pf := prof.New()
			profilers[run] = pf
			cfg.Prof = pf
		}
		if opt.OnProgress != nil {
			cfg.ProgressEvery = opt.ProgressEvery
			cfg.OnProgress = func(p sim.Progress) { opt.OnProgress(run, p) }
		}
	}

	// Configure all three runs up front (observer registration order stays
	// deterministic), then execute — concurrently when requested. The runs
	// share only immutable inputs (the traces), so concurrent execution is
	// bit-identical to sequential.
	cfg := SimConfig(m, cm, opt)
	cfg.Policy = opt.BaselinePolicy
	attach(&cfg, "baseline")

	optCfg := cfg
	if m.Interleave == layout.PageInterleave {
		// The optimized run needs the OS-assisted policy (Section 5.3).
		optCfg.Policy = sim.PolicyOSAssisted
	}
	attach(&optCfg, "optimized")

	idealCfg := cfg
	idealCfg.OptimalOffchip = true
	// The optimal scheme is the migration engine's fixed point — every
	// request already goes to the nearest controller — so it never migrates.
	idealCfg.Migrate = nil
	attach(&idealCfg, "optimal")

	type simJob struct {
		name string
		cfg  sim.Config
		w    *sim.Workload
		res  *sim.Result
		err  error
	}
	jobs := []*simJob{
		{name: "baseline", cfg: cfg, w: baseW},
		{name: "optimized", cfg: optCfg, w: optW},
		{name: "optimal", cfg: idealCfg, w: baseW},
	}
	if opt.Concurrent {
		var wg sync.WaitGroup
		for _, j := range jobs {
			wg.Add(1)
			go func(j *simJob) {
				defer wg.Done()
				j.res, j.err = sim.Run(j.cfg, j.w)
			}(j)
		}
		wg.Wait()
	} else {
		for _, j := range jobs {
			j.res, j.err = sim.Run(j.cfg, j.w)
		}
	}
	for _, j := range jobs {
		if j.err != nil {
			return nil, fmt.Errorf("core: %s %s: %w", app.Name, j.name, j.err)
		}
	}

	var checks map[string][]check.Violation
	if opt.Check {
		checks = map[string][]check.Violation{}
		for run, ck := range checkers {
			checks[run] = ck.Violations()
		}
	}
	var profiles map[string]*prof.Profile
	if opt.Prof {
		profiles = map[string]*prof.Profile{}
		for run, pf := range profilers {
			profiles[run] = pf.Profile()
		}
	}

	return &Comparison{
		App:                app.Name,
		Machine:            m,
		Mapping:            cm.Name,
		Baseline:           distill(jobs[0].res),
		Optimized:          distill(jobs[1].res),
		Optimal:            distill(jobs[2].res),
		Observers:          observers,
		Checks:             checks,
		Profiles:           profiles,
		PctArraysOptimized: res.PctArraysOptimized(),
		PctRefsSatisfied:   res.PctRefsSatisfied(),
	}, nil
}
