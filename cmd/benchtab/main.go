// Command benchtab regenerates the tables and figures of "Optimizing
// Off-Chip Accesses in Multicores" (PLDI 2015):
//
//	benchtab -exp fig16          # one experiment
//	benchtab -exp all            # everything (several minutes)
//	benchtab -exp fig14 -apps apsi,swim -quick
//
// Experiments are sharded into independent jobs (one simulation each) and
// can run on a worker pool; results are bit-identical at any worker count:
//
//	benchtab -exp fig16 -parallel 8          # 8 workers, same numbers
//	benchtab -sweep -parallel 8 -progress    # app × scheme example sweep
//	benchtab -jobs                           # print the sweep's job IDs
//	benchtab -replay '<job-id>'              # re-run one job, bit-exact
//	benchtab -bench-runner BENCH_runner.json # record 1-vs-N wall clocks
//
// Sweep observability (see EXPERIMENTS.md "Profiling a sweep"):
//
//	benchtab -sweep -prof                    # sweep-wide latency attribution
//	benchtab -sweep -serve :9090             # live /metrics, /progress, /profile
//	benchtab -sweep -sweep-out s.jsonl       # merged registry dump + manifest
//	benchtab -replay '<job-id>' -prof        # attribution of one replayed job
//
// Each experiment prints a fixed-width table whose rows correspond to the
// bars/series of the paper's figure; see DESIGN.md for the per-experiment
// index and EXPERIMENTS.md for paper-vs-measured commentary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"offchip/internal/core"
	"offchip/internal/experiments"
	"offchip/internal/layout"
	"offchip/internal/mem"
	"offchip/internal/obs"
	"offchip/internal/prof"
	"offchip/internal/runner"
	"offchip/internal/sim"
	"offchip/internal/sweepq"
	"offchip/internal/tracecache"
	"offchip/internal/workloads"
)

func main() {
	// -bench-sweepd spawns this binary as its own worker fleet; the children
	// enter the protocol loop here and never parse flags.
	sweepq.MaybeWorker()
	exp := flag.String("exp", "all", "experiment id (fig3..fig25, table2, figmig, figmix, figtune) or 'all'")
	apps := flag.String("apps", "", "comma-separated application subset (default: all 13)")
	quick := flag.Bool("quick", false, "sampled short traces (fast smoke run; numbers not meaningful)")
	asJSON := flag.Bool("json", false, "emit JSON instead of tables")
	parallel := flag.Int("parallel", 1, "worker count for job-sharded experiments (results identical at any count)")
	seed := flag.Uint64("seed", 0, "sweep seed; 0 keeps the historical jitter stream of the recorded figures")
	replay := flag.String("replay", "", "re-run one job from its canonical ID and print its outcome")
	sweep := flag.Bool("sweep", false, "run the app × layout-scheme example sweep")
	jobs := flag.Bool("jobs", false, "print the example sweep's job IDs (replay handles) without running")
	progress := flag.Bool("progress", false, "print one line per finished job")
	benchRunner := flag.String("bench-runner", "", "measure the sweep at 1 and -parallel workers; write wall clocks to this JSON file")
	benchEngine := flag.String("bench-engine", "", "time the full experiment suite and a representative simulation against the pre-overhaul engine baseline; write the record to this JSON file")
	benchSweepd := flag.String("bench-sweepd", "", "measure the sweep in-process vs on a worker-process fleet; write wall clocks to this JSON file")
	cacheFlag := flag.String("trace-cache", "", `memoize trace generation across experiments: "mem" (in-process) or a directory for a persistent cache`)
	migrateFlag := flag.String("migrate", "", `hot-page migration spec for figmig/figmix dynamic and hybrid runs: on | h<thr>w<win>c<cool>f<flits>t<stall>[g<pages>] (default: "on" for figmig; figmix retunes to per-page granularity)`)
	profFlag := flag.Bool("prof", false, "attach the latency-attribution profiler to every job and print the sweep-wide differential attribution")
	serveAddr := flag.String("serve", "", "serve the live sweep observability plane (/metrics, /progress, /profile) on this address")
	sweepOut := flag.String("sweep-out", "", "write the sweep's merged registry as JSONL, plus a .manifest.json provenance record")
	flag.Parse()

	cfg := experiments.Config{Parallel: *parallel, Seed: *seed, Prof: *profFlag}
	if *apps != "" {
		cfg.Apps = strings.Split(*apps, ",")
	}
	if *cacheFlag != "" {
		dir := *cacheFlag
		if dir == "mem" {
			dir = "" // in-process only
		}
		tc, err := tracecache.New(dir)
		if err != nil {
			fail(err)
		}
		cfg.TraceCache = tc
	}
	if sp, err := mem.ParseMigrationSpec(*migrateFlag); err != nil {
		fail(err)
	} else if sp != nil {
		cfg.Migrate = sp.String()
	}
	if *quick {
		cfg.MaxAccessesPerThread = 200
	}
	if *progress {
		cfg.OnJob = func(ev runner.JobEvent) {
			status := "ok"
			if ev.Err != nil {
				status = "FAIL: " + ev.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%3d/%3d] w%d %6.2fs %s %s\n",
				ev.Done, ev.Total, ev.Worker, float64(ev.WallNS)/1e9, ev.ID, status)
		}
	}

	switch {
	case *replay != "":
		if err := replayJob(*replay, *profFlag); err != nil {
			fail(err)
		}
		return
	case *jobs:
		specs, err := cfg.ExampleSweep()
		if err != nil {
			fail(err)
		}
		for _, s := range specs {
			fmt.Println(s.ID())
		}
		return
	case *benchRunner != "":
		if err := benchRunnerRun(cfg, *parallel, *benchRunner); err != nil {
			fail(err)
		}
		return
	case *benchEngine != "":
		if err := benchEngineRun(cfg, *benchEngine); err != nil {
			fail(err)
		}
		return
	case *benchSweepd != "":
		if err := benchSweepdRun(cfg, *parallel, *benchSweepd); err != nil {
			fail(err)
		}
		return
	case *sweep:
		if err := runSweep(cfg, *serveAddr, *sweepOut, *profFlag, *seed); err != nil {
			fail(err)
		}
		return
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.AllIDs()
	}
	for _, id := range ids {
		start := time.Now()
		if *asJSON {
			raw, err := experiments.RunJSON(id, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", id, err)
				os.Exit(1)
			}
			fmt.Println(string(raw))
			continue
		}
		out, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("[%s took %.1fs]\n\n", id, time.Since(start).Seconds())
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchtab:", err)
	os.Exit(1)
}

// runSweep runs the example sweep with the sweep-level observability
// attached: the live HTTP plane (when -serve), the merged-registry dump and
// provenance manifest (when -sweep-out), and the sweep-wide differential
// attribution (when -prof).
func runSweep(cfg experiments.Config, serveAddr, sweepOut string, withProf bool, seed uint64) error {
	specs, err := cfg.ExampleSweep()
	if err != nil {
		return err
	}
	manifest := prof.NewManifest()
	manifest.Seed = seed
	manifest.Config = map[string]string{
		"apps":     strings.Join(cfg.Apps, ","),
		"cap":      strconv.Itoa(cfg.MaxAccessesPerThread),
		"parallel": strconv.Itoa(cfg.Parallel),
		"prof":     strconv.FormatBool(withProf),
	}
	for _, s := range specs {
		manifest.Jobs = append(manifest.Jobs, s.ID())
	}

	// The live plane folds each job's registries and profiles in as the job
	// completes (OnJob calls are serialized by the runner). The registry is
	// safe for concurrent snapshot; profiles are copied out under the mutex.
	var (
		liveMu    sync.Mutex
		liveReg   = obs.NewRegistry()
		liveProfs = map[string]*prof.Profile{}
		liveDone  int
		liveFail  int
	)
	if serveAddr != "" {
		prev := cfg.OnJob
		cfg.OnJob = func(ev runner.JobEvent) {
			if prev != nil {
				prev(ev)
			}
			liveMu.Lock()
			defer liveMu.Unlock()
			liveDone = ev.Done
			if ev.Err != nil {
				liveFail++
			}
			o := ev.Outcome
			if o == nil || o.Err != nil {
				return
			}
			runs := make([]string, 0, len(o.Observers))
			for run := range o.Observers {
				runs = append(runs, run)
			}
			sort.Strings(runs)
			for _, run := range runs {
				if ob := o.Observers[run]; ob != nil && ob.Reg != nil {
					liveReg.MergeScoped(ob.Reg, o.ExecTimes[run], "job="+o.ShortID, "run="+run)
				}
			}
			for run, p := range o.Profiles {
				if liveProfs[run] == nil {
					liveProfs[run] = &prof.Profile{}
				}
				liveProfs[run].Add(p)
			}
		}
		srv, err := prof.NewServer(prof.ServerConfig{
			Addr: serveAddr,
			Registries: func() map[string]*obs.Registry {
				return map[string]*obs.Registry{"sweep": liveReg}
			},
			Profiles: func() map[string]*prof.Profile {
				liveMu.Lock()
				defer liveMu.Unlock()
				out := make(map[string]*prof.Profile, len(liveProfs))
				for run, p := range liveProfs {
					c := &prof.Profile{}
					c.Add(p) // deep copy: the live aggregate keeps mutating
					out[run] = c
				}
				return out
			},
			Progress: func() prof.Progress {
				liveMu.Lock()
				defer liveMu.Unlock()
				inflight := len(specs) - liveDone
				if w := cfg.Parallel; w >= 1 && inflight > w {
					inflight = w
				}
				return prof.Progress{
					TotalJobs: len(specs), DoneJobs: liveDone,
					InFlight: inflight, Failed: liveFail,
				}
			},
		})
		if err != nil {
			return err
		}
		srv.Start()
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "benchtab: observability plane on http://%s\n", srv.Addr())
	}

	start := time.Now()
	res, err := experiments.RunSweep(cfg)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	fmt.Printf("[sweep: %d jobs, %d workers, %d steals, %.1fs]\n",
		len(res.Specs), res.Result.Workers, res.Result.Steals, res.Result.Wall.Seconds())
	fmt.Printf("[total %.1fs; replay any job with -replay '<id>' from -jobs]\n", time.Since(start).Seconds())

	if withProf {
		profs := res.Profiles()
		fmt.Println()
		fmt.Println(prof.DiffTable("sweep latency attribution (cycles/access, baseline vs optimized, all jobs)",
			profs["baseline"], profs["optimized"]).String())
		fmt.Println(prof.QuantileTable("sweep optimized-run stage latency quantiles (cycles)",
			profs["optimized"]).String())
		if p := profs["optimized"]; p != nil {
			manifest.StageTotals = p.StageTotals()
		}
	}
	if sweepOut != "" {
		f, err := os.Create(sweepOut)
		if err != nil {
			return err
		}
		if err := obs.WriteJSONL(f, res.Merged.Snapshot(0)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := manifest.Write(prof.ManifestPath(sweepOut)); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchtab: wrote merged sweep registry to %s (manifest %s)\n",
			sweepOut, prof.ManifestPath(sweepOut))
	}
	return nil
}

// replayJob re-executes one job from its ID and prints the canonical
// (deterministic) outcome — the same bytes the differential tests compare,
// so two replays of the same ID always print identical output. With -prof it
// also prints the job's latency attribution (the profiler observes without
// changing the job's identity or results).
func replayJob(id string, withProf bool) error {
	spec, err := runner.ParseJobID(id)
	if err != nil {
		return err
	}
	spec.Prof = withProf
	out := spec.Execute()
	if out.Err != nil {
		return out.Err
	}
	raw, err := out.CanonicalJSON()
	if err != nil {
		return err
	}
	var pretty map[string]any
	if err := json.Unmarshal(raw, &pretty); err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(pretty); err != nil {
		return err
	}
	if withProf {
		if base, opt := out.Profiles["baseline"], out.Profiles["optimized"]; base != nil && opt != nil {
			fmt.Println(prof.DiffTable("latency attribution (cycles/access, baseline vs optimized)", base, opt).String())
		} else {
			runs := make([]string, 0, len(out.Profiles))
			for run := range out.Profiles {
				runs = append(runs, run)
			}
			sort.Strings(runs)
			for _, run := range runs {
				fmt.Println(prof.AttributionTable("latency attribution: "+run, out.Profiles[run]).String())
			}
		}
	}
	return nil
}

// benchRunnerRun times the example sweep at 1 worker and at `workers`
// workers and records both wall clocks. On a single-CPU host the speedup
// is honestly ~1×; the numbers exist to track the scaling, not to flatter
// it.
func benchRunnerRun(cfg experiments.Config, workers int, path string) error {
	if workers <= 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	time1, jobs, err := timeSweep(cfg, 1)
	if err != nil {
		return err
	}
	timeN, _, err := timeSweep(cfg, workers)
	if err != nil {
		return err
	}
	rec := map[string]any{
		"bench":        "runner-sweep",
		"jobs":         jobs,
		"apps":         cfg.Apps,
		"cap":          cfg.MaxAccessesPerThread,
		"numcpu":       runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"workers":      workers,
		"seconds_1":    time1.Seconds(),
		"seconds_n":    timeN.Seconds(),
		"speedup":      time1.Seconds() / timeN.Seconds(),
		"generated_at": time.Now().UTC().Format(time.RFC3339),
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("runner sweep: %d jobs, 1 worker %.1fs, %d workers %.1fs (%.2fx, %d CPUs) -> %s\n",
		jobs, time1.Seconds(), workers, timeN.Seconds(),
		time1.Seconds()/timeN.Seconds(), runtime.NumCPU(), path)
	return nil
}

// benchSweepdRun times the example sweep in-process (1 worker, the
// reference) and on a worker-process fleet (this binary re-executed, the
// sweep service's execution path), checks the merged registries are
// identical, and records both wall clocks. Process spawn and JSON framing
// are pure overhead on a single CPU; the record tracks what the isolation
// costs, not a speedup.
func benchSweepdRun(cfg experiments.Config, workers int, path string) error {
	if workers <= 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	specs, err := cfg.ExampleSweep()
	if err != nil {
		return err
	}

	start := time.Now()
	local, err := runner.Run(specs, runner.Options{Workers: 1})
	if err != nil {
		return err
	}
	if err := local.FirstError(); err != nil {
		return err
	}
	localWall := time.Since(start)

	fleet, err := sweepq.NewFleet(sweepq.FleetConfig{Workers: workers})
	if err != nil {
		return err
	}
	defer fleet.Close()
	start = time.Now()
	remote, err := runner.Run(specs, runner.Options{Workers: workers, Executor: fleet})
	if err != nil {
		return err
	}
	if err := remote.FirstError(); err != nil {
		return err
	}
	fleetWall := time.Since(start)

	horizon := int64(1) << 40
	if !reflect.DeepEqual(local.Merged().Snapshot(horizon), remote.Merged().Snapshot(horizon)) {
		return fmt.Errorf("bench-sweepd: fleet sweep diverged from in-process sweep")
	}

	rec := map[string]any{
		"bench":            "sweepd-fleet",
		"jobs":             len(specs),
		"apps":             cfg.Apps,
		"cap":              cfg.MaxAccessesPerThread,
		"numcpu":           runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"fleet_workers":    workers,
		"seconds_inproc":   localWall.Seconds(),
		"seconds_fleet":    fleetWall.Seconds(),
		"fleet_overhead":   fleetWall.Seconds() / localWall.Seconds(),
		"merged_identical": true,
		"generated_at":     time.Now().UTC().Format(time.RFC3339),
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("sweepd fleet: %d jobs, in-process %.1fs, %d-worker fleet %.1fs (%.2fx overhead, identical results) -> %s\n",
		len(specs), localWall.Seconds(), workers, fleetWall.Seconds(),
		fleetWall.Seconds()/localWall.Seconds(), path)
	return nil
}

// Pre-overhaul engine baseline, measured on the commit immediately before
// the timing-wheel rewrite (container/heap event queue, closure events,
// same host, GOMAXPROCS unchanged, `benchtab -exp all` at 1 worker). The
// micro numbers are BenchmarkSteadyStateDispatchHeapOracle, which still
// runs the original queue verbatim: `go test -bench HeapOracle ./internal/engine`.
const (
	baselineExpAllSeconds    = 413.74
	baselineMicroNsPerEvent  = 222.1
	baselineMicroAllocsPerOp = 2
)

// benchEngineRun records the engine-overhaul regression numbers: wall clock
// of the full experiment suite (the acceptance metric), plus end-to-end ns
// and heap allocations per simulated event on a representative full
// application run, all against the pinned pre-overhaul baseline.
func benchEngineRun(cfg experiments.Config, path string) error {
	// Representative simulation: apsi baseline trace, full length — the same
	// machine BenchmarkFullSweep drives.
	app, ok := workloads.ByName("apsi")
	if !ok {
		return fmt.Errorf("bench-engine: apsi workload missing")
	}
	m := layout.Default8x8()
	cm, err := layout.MappingM1(m, layout.PlacementCorners(m.MeshX, m.MeshY))
	if err != nil {
		return err
	}
	base, _, _, err := core.Workloads(app, m, cm, core.Options{})
	if err != nil {
		return err
	}
	simCfg := core.SimConfig(m, cm, core.Options{})
	if _, err := sim.Run(simCfg, base); err != nil { // warm-up
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	simStart := time.Now()
	r, err := sim.Run(simCfg, base)
	if err != nil {
		return err
	}
	simWall := time.Since(simStart)
	runtime.ReadMemStats(&after)
	nsPerEvent := float64(simWall.Nanoseconds()) / float64(r.Events)
	allocsPerEvent := float64(after.Mallocs-before.Mallocs) / float64(r.Events)

	// The acceptance metric: the full suite, same worker count as the
	// baseline measurement (1).
	fmt.Fprintln(os.Stderr, "bench-engine: running the full experiment suite (several minutes)...")
	suiteStart := time.Now()
	for _, id := range experiments.AllIDs() {
		if _, err := experiments.Run(id, cfg); err != nil {
			return fmt.Errorf("bench-engine: %s: %w", id, err)
		}
	}
	suiteWall := time.Since(suiteStart)

	rec := map[string]any{
		"bench":      "engine-overhaul",
		"numcpu":     runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"baseline": map[string]any{
			"queue":                  "container/heap + closure events",
			"expall_seconds":         baselineExpAllSeconds,
			"micro_ns_per_event":     baselineMicroNsPerEvent,
			"micro_allocs_per_event": baselineMicroAllocsPerOp,
		},
		"current": map[string]any{
			"queue":                  "timing wheel + pooled typed events",
			"expall_seconds":         suiteWall.Seconds(),
			"sim_events":             r.Events,
			"sim_ns_per_event":       nsPerEvent,
			"sim_allocs_per_event":   allocsPerEvent,
			"micro_allocs_per_event": 0,
			"micro_bench":            "go test -bench SteadyStateDispatch -benchmem ./internal/engine",
		},
		"expall_speedup": baselineExpAllSeconds / suiteWall.Seconds(),
		"generated_at":   time.Now().UTC().Format(time.RFC3339),
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("engine: suite %.1fs vs baseline %.1fs (%.2fx); sim %.1f ns/event, %.4f allocs/event -> %s\n",
		suiteWall.Seconds(), baselineExpAllSeconds, baselineExpAllSeconds/suiteWall.Seconds(),
		nsPerEvent, allocsPerEvent, path)
	return nil
}

func timeSweep(cfg experiments.Config, workers int) (time.Duration, int, error) {
	cfg.Parallel = workers
	start := time.Now()
	res, err := experiments.RunSweep(cfg)
	if err != nil {
		return 0, 0, err
	}
	return time.Since(start), len(res.Specs), nil
}
