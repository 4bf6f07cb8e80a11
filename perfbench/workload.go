package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"offchip/internal/core"
	"offchip/internal/runner"
	"offchip/internal/sim"
	"offchip/internal/sweepq"
	"offchip/internal/tracecache"
	"offchip/internal/workloads"
)

// workloadNames are the benchmark's workloads. Each loads a different
// layer; README.md says why each exists.
var workloadNames = []string{"suite-cold", "mix-replay", "fleet-short"}

// size scales the workloads: fullSize is the benchmark, the test runs a
// tiny one.
type size struct {
	suiteCap, mixCap, fleetCap int
	apps                       []string            // nil: all 13 applications
	mixes                      []workloads.MixSpec // nil: workloads.DefaultPhaseMixes()
}

var fullSize = size{fleetCap: 1500}

func (z size) appNames() []string {
	if z.apps != nil {
		return z.apps
	}
	return workloads.Names()
}

func (z size) mixList() []workloads.MixSpec {
	if z.mixes != nil {
		return z.mixes
	}
	return workloads.DefaultPhaseMixes()
}

// mixConfigs are figmix's five page-interleaved schemes plus the shipped
// `-migrate on` default, whose g4 clusters make cluster remaps run too.
var mixConfigs = []struct {
	mode            runner.Mode
	policy, migrate string
}{
	{runner.ModeBaseline, "", ""},                         // interleaved
	{runner.ModeOptimized, "", ""},                        // static compiler layout
	{runner.ModeBaseline, "ftnearest", ""},                // first-touch-nearest
	{runner.ModeBaseline, "ftnearest", "h16w4096c2f0t64"}, // dynamic migration
	{runner.ModeOptimized, "", "h16w4096c2f0t64"},         // hybrid
	{runner.ModeBaseline, "ftnearest", "on"},              // shipped default
}

// jobSpecs lists a workload's jobs in a fixed order.
func jobSpecs(workload string, seed uint64, z size) []runner.JobSpec {
	var specs []runner.JobSpec
	switch workload {
	case "suite-cold":
		for _, app := range z.appNames() {
			specs = append(specs, runner.JobSpec{Mode: runner.ModeCompare, App: app, Cap: z.suiteCap, Seed: seed})
		}
	case "mix-replay":
		for _, mx := range z.mixList() {
			for _, c := range mixConfigs {
				specs = append(specs, runner.JobSpec{
					Mode: c.mode, Mix: mx.String(), Interleave: "page",
					Policy: c.policy, Migrate: c.migrate, Cap: z.mixCap, Seed: seed,
				})
			}
		}
	case "fleet-short":
		for _, app := range z.appNames() {
			for _, il := range []string{"line", "page"} {
				for _, mode := range []runner.Mode{runner.ModeCompare, runner.ModeBaseline, runner.ModeOptimized} {
					specs = append(specs, runner.JobSpec{Mode: mode, App: app, Interleave: il, Cap: z.fleetCap, Seed: seed})
				}
			}
		}
	}
	return specs
}

// canarySpec is the job each set-up runs once at the golden seed and
// checks against golden.json: the workload's cheapest job, so that every
// run, whatever its seed, also reproduces a recorded output.
func canarySpec(workload string, z size) runner.JobSpec {
	specs := jobSpecs(workload, goldenSeed, z)
	if workload == "suite-cold" {
		for _, s := range specs {
			if s.App == "art" {
				return s
			}
		}
	}
	return specs[0]
}

// passStats is one pass over a workload's jobs.
type passStats struct {
	wall     time.Duration
	cpu      time.Duration // user+sys of this process and of the fleet workers it ran
	jobs     []time.Duration
	accesses int64 // simulated accesses retired
	childRSS int64 // largest fleet worker's peak RSS, KiB
	// runnerIdle is runner.Run's wall times its worker count minus the sum
	// of its job walls: the time the runner's workers were not inside a job.
	runnerIdle time.Duration
}

type workload interface {
	// setup builds what the timed passes need and runs the canary job.
	setup() error
	// pass runs every job once, untraced, and checks every output.
	pass() (*passStats, error)
	// tracedPass runs every job once with spans around each layer call.
	tracedPass() (*passStats, error)
	// verify runs the untimed cross-checks that close a run.
	verify() error
}

func newWorkload(b *bench) (workload, error) {
	switch b.cfg.workload {
	case "suite-cold":
		return &suiteCold{b: b}, nil
	case "mix-replay":
		return &mixReplay{b: b}, nil
	case "fleet-short":
		return &fleetShort{b: b}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", b.cfg.workload, workloadNames)
}

// runnerPass runs specs through runner.Run and checks every outcome.
func (b *bench) runnerPass(specs []runner.JobSpec, opt runner.Options) (*passStats, *runner.Result, error) {
	c0 := cpuTime()
	res, err := runner.Run(specs, opt)
	if err != nil {
		return nil, nil, err
	}
	ps := &passStats{wall: res.Wall, cpu: cpuTime() - c0}
	var sum time.Duration
	for _, o := range res.Outcomes {
		b.ck.outcome(o)
		d := time.Duration(o.WallNS)
		ps.jobs = append(ps.jobs, d)
		sum += d
		for _, ob := range o.Observers {
			if ob != nil && ob.Reg != nil {
				ps.accesses += ob.Reg.Sum("sim", "accesses")
			}
		}
	}
	ps.runnerIdle = res.Wall*time.Duration(res.Workers) - sum
	return ps, res, nil
}

// suite-cold: the paper's three-way compare for every application, full
// traces, one in-process worker, no trace cache.
type suiteCold struct {
	b     *bench
	specs []runner.JobSpec
}

func (w *suiteCold) setup() error {
	w.specs = jobSpecs("suite-cold", w.b.cfg.seed, w.b.cfg.size)
	for _, name := range w.b.cfg.size.appNames() {
		app, ok := workloads.ByName(name)
		if !ok {
			return fmt.Errorf("unknown application %q", name)
		}
		if _, _, err := app.Load(); err != nil {
			return err
		}
	}
	_, _, err := w.b.runnerPass([]runner.JobSpec{canarySpec("suite-cold", w.b.cfg.size)}, runner.Options{Workers: 1})
	return err
}

func (w *suiteCold) pass() (*passStats, error) {
	ps, _, err := w.b.runnerPass(w.specs, runner.Options{Workers: 1})
	return ps, err
}

func (w *suiteCold) tracedPass() (*passStats, error) {
	ps := &passStats{}
	c0, t0 := cpuTime(), time.Now()
	for _, s := range w.specs {
		j := w.b.tracedJob(s, nil)
		ps.jobs = append(ps.jobs, j.wall)
		ps.accesses += j.accesses
	}
	ps.wall, ps.cpu = time.Since(t0), cpuTime()-c0
	return ps, nil
}

func (w *suiteCold) verify() error { return nil }

// mix-replay: figmix's schemes over the phase-changing mixes, replayed
// with sim.Run over traces built once in set-up.
type mixReplay struct {
	b     *bench
	specs []runner.JobSpec
	jobs  []replayJob
}

type replayJob struct {
	id  string
	cfg sim.Config
	w   *sim.Workload
}

func (w *mixReplay) setup() error {
	z := w.b.cfg.size
	w.specs = jobSpecs("mix-replay", w.b.cfg.seed, z)
	built := map[string][2]*sim.Workload{}
	for _, mx := range z.mixList() {
		probe := runner.JobSpec{Mode: runner.ModeBaseline, Mix: mx.String(), Interleave: "page", Cap: z.mixCap}
		m, cm, opt, err := probe.Build()
		if err != nil {
			return err
		}
		var base, optW *sim.Workload
		if w.b.rec != nil {
			base, optW, err = w.b.tracedMix(mx, m, cm, opt)
		} else {
			base, optW, err = core.MixWorkloads(mx, m, cm, opt)
		}
		if err != nil {
			return err
		}
		built[mx.String()] = [2]*sim.Workload{base, optW}
	}
	var err error
	if w.jobs, err = replayJobs(w.specs, built); err != nil {
		return err
	}
	if w.b.rec != nil {
		used := map[*sim.Workload]bool{}
		for _, j := range w.jobs {
			used[j.w] = true
		}
		w.b.layers.generated += 2 * len(built)
		w.b.layers.used += len(used)
	}
	canary, err := replayJobs([]runner.JobSpec{canarySpec("mix-replay", z)}, built)
	if err != nil {
		return err
	}
	w.b.replay(canary[0], false)
	return nil
}

// replayJobs resolves each spec into the sim.Config and composed workload
// runner.Run would simulate for it.
func replayJobs(specs []runner.JobSpec, built map[string][2]*sim.Workload) ([]replayJob, error) {
	var jobs []replayJob
	for _, s := range specs {
		n := s.Normalized()
		m, cm, opt, err := n.Build()
		if err != nil {
			return nil, err
		}
		cfg := core.SimConfig(m, cm, opt)
		cfg.Policy = opt.BaselinePolicy
		ws := built[n.Mix]
		wl := ws[0]
		if n.Mode == runner.ModeOptimized {
			// As runner.Run does: the optimized run honors the layout
			// pass's page placement.
			wl, cfg.Policy = ws[1], sim.PolicyOSAssisted
		}
		jobs = append(jobs, replayJob{id: n.ID(), cfg: cfg, w: wl})
	}
	return jobs, nil
}

// replay runs one replay job and checks it; traced adds a sim.Run span.
func (b *bench) replay(j replayJob, traced bool) (time.Duration, *sim.Result) {
	t0 := time.Now()
	var r *sim.Result
	var err error
	if traced {
		r, err = b.tracedRun(j.id, 0, j.cfg, j.w)
	} else {
		r, err = sim.Run(j.cfg, j.w)
	}
	d := time.Since(t0)
	var canon []byte
	if err == nil {
		canon, err = (&runner.JobOutcome{ID: j.id, Run: r}).CanonicalJSON()
	}
	if err == nil {
		err = conserved(r, false)
	}
	if !b.ck.job(j.id, canon, err) {
		r = nil
	}
	return d, r
}

func (w *mixReplay) runPass(traced bool) (*passStats, error) {
	ps := &passStats{}
	c0, t0 := cpuTime(), time.Now()
	for _, j := range w.jobs {
		d, r := w.b.replay(j, traced)
		ps.jobs = append(ps.jobs, d)
		if r != nil {
			ps.accesses += r.Completed
		}
	}
	ps.wall, ps.cpu = time.Since(t0), cpuTime()-c0
	return ps, nil
}

func (w *mixReplay) pass() (*passStats, error)       { return w.runPass(false) }
func (w *mixReplay) tracedPass() (*passStats, error) { return w.runPass(true) }

// verify runs the same job IDs through runner.Run, untimed, so the
// replayed outputs (ExecTime included) are checked against the program's
// own pipeline. An in-memory trace cache lets the jobs share their apps'
// traces; cached streams are byte-identical to fresh ones.
func (w *mixReplay) verify() error {
	cache, err := tracecache.New("")
	if err != nil {
		return err
	}
	specs := append([]runner.JobSpec(nil), w.specs...)
	for i := range specs {
		specs[i].Cache = cache
	}
	_, _, err = w.b.runnerPass(specs, runner.Options{Workers: procs()})
	return err
}

// fleet-short: short jobs through runner.Run with a two-process
// sweepq.Fleet sharing a fresh on-disk trace cache, as sweepd runs them.
type fleetShort struct {
	b     *bench
	specs []runner.JobSpec
	n     int // fleets started, for fresh directory names
}

func (w *fleetShort) setup() error {
	w.specs = jobSpecs("fleet-short", w.b.cfg.seed, w.b.cfg.size)
	_, err := w.fleetPass([]runner.JobSpec{canarySpec("fleet-short", w.b.cfg.size)}, 1, false)
	return err
}

// fleetPass starts a fleet of the given size over a fresh trace cache,
// runs specs through it, and shuts it down; all of that is timed. The
// workers report their own CPU time and peak RSS when they exit.
func (w *fleetShort) fleetPass(specs []runner.JobSpec, workers int, traced bool) (*passStats, error) {
	w.n++
	dir := filepath.Join(w.b.dir, fmt.Sprintf("fleet-%d", w.n))
	stats := filepath.Join(dir, "workers")
	if err := os.MkdirAll(stats, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c0, t0 := cpuTime(), time.Now()
	f, err := sweepq.NewFleet(sweepq.FleetConfig{
		Workers:  workers,
		CacheDir: filepath.Join(dir, "cache"),
		Command: func() *exec.Cmd {
			cmd := exec.Command(self)
			cmd.Env = append(os.Environ(), statsEnv+"="+stats)
			if traced {
				cmd.Env = append(cmd.Env, profileEnv+"=1")
			}
			return cmd
		},
	})
	if err != nil {
		return nil, err
	}
	var ex runner.Executor = f
	if traced {
		ex = &tracedFleet{b: w.b, f: f}
	}
	ps, _, err := w.b.runnerPass(specs, runner.Options{Workers: workers, Executor: ex})
	f.Close()
	wall, cpu := time.Since(t0), cpuTime()-c0
	if err != nil {
		return nil, err
	}
	st := f.Stats()
	reps, err := readWorkerReports(stats, traced)
	if err != nil {
		return nil, err
	}
	if int64(len(reps)) != st.Spawns {
		return nil, fmt.Errorf("%d of %d fleet workers reported their usage", len(reps), st.Spawns)
	}
	ps.wall, ps.cpu = wall, cpu
	for _, r := range reps {
		ps.cpu += r.cpu
		ps.childRSS = max(ps.childRSS, r.maxRSSKiB)
	}
	if traced {
		w.b.layers.spawns += st.Spawns
		w.b.layers.crashes += st.Crashes
		for _, r := range reps {
			// Keep the profile: the fleet's directory goes when it ends.
			kept := filepath.Join(w.b.dir, fmt.Sprintf("fleet-%d-%s", w.n, filepath.Base(r.profile)))
			if err := os.Rename(r.profile, kept); err != nil {
				return nil, err
			}
			w.b.profiles = append(w.b.profiles, kept)
		}
	}
	return ps, nil
}

func (w *fleetShort) pass() (*passStats, error) { return w.fleetPass(w.specs, procs(), false) }

// tracedPass runs the fleet pass with a span around every Fleet.Execute,
// then the same jobs in process with spans around every layer call, over
// their own fresh disk cache, so the difference is the fleet's overhead.
func (w *fleetShort) tracedPass() (*passStats, error) {
	ps, err := w.fleetPass(w.specs, procs(), true)
	if err != nil {
		return nil, err
	}
	w.n++
	dir := filepath.Join(w.b.dir, fmt.Sprintf("inproc-%d", w.n))
	defer os.RemoveAll(dir)
	cache, err := tracecache.New(dir)
	if err != nil {
		return nil, err
	}
	for _, s := range w.specs {
		j := w.b.tracedJob(s, cache)
		w.b.layers.inprocJobs = append(w.b.layers.inprocJobs, j.wall)
		w.b.decodeProbe(j, dir)
	}
	return ps, nil
}

func (w *fleetShort) verify() error { return nil }
