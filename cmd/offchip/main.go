// Command offchip runs the off-chip access localization pass on a program
// in the affine-loop language and reports what the compiler did and what it
// bought on the simulated manycore:
//
//	offchip -src kernel.alc                # transform + simulate
//	offchip -src kernel.alc -show          # also print the transformed forms
//	offchip -app apsi                      # use a built-in benchmark kernel
//	offchip -app apsi -l2 shared -mapping m2
//	offchip -app apsi -interleave page -policy ftnearest -migrate on
//
// The report shows the per-array transformation decisions (Table 2 style),
// the Figure 9(c) customized reference forms, and the baseline/optimized/
// optimal comparison on the Table 1 platform.
//
// Observability (see README "Observing a run"):
//
//	offchip -app apsi -progress            # live one-line run status
//	offchip -app apsi -trace t.json        # Chrome trace of the optimized run
//	offchip -app apsi -metrics m.jsonl     # metrics registry dump, all runs
//	offchip -app apsi -report              # post-run text dashboard
//	offchip -app apsi -pprof :6060         # serve net/http/pprof while running
//	offchip -app apsi -prof                # cycle-level latency attribution tables
//	offchip -app apsi -prof-folded p.txt   # folded stacks for flamegraph.pl
//	offchip -app apsi -prof-pprof p.pb.gz  # attribution as pprof protobuf
//	offchip -app apsi -serve :9090         # live /metrics, /progress, /profile
//
// Parallelism and replay (see EXPERIMENTS.md "Parallel sweeps"):
//
//	offchip -app apsi -parallel            # run the three simulations concurrently
//	offchip -app apsi -seed 7              # decorrelate the DRAM jitter stream
//	offchip -replay '<job-id>'             # re-run one sweep job bit-exactly
//
// Sweep service client (see README "Running a sweep service"):
//
//	offchip -submit http://host:9191                  # submit the full suite sweep
//	offchip -submit http://host:9191 -apps apsi,swim -cap 100
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"offchip/internal/approx"
	"offchip/internal/core"
	"offchip/internal/experiments"
	"offchip/internal/ir"
	"offchip/internal/layout"
	"offchip/internal/mem"
	"offchip/internal/obs"
	"offchip/internal/prof"
	"offchip/internal/runner"
	"offchip/internal/sim"
	"offchip/internal/stats"
	"offchip/internal/sweepq"
	"offchip/internal/tracecache"
	"offchip/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "offchip:", err)
		os.Exit(1)
	}
}

func run() error {
	src := flag.String("src", "", "program in the affine-loop language")
	app := flag.String("app", "", "built-in benchmark kernel (wupwise..minimd)")
	l2 := flag.String("l2", "private", "last-level cache: private | shared")
	mapping := flag.String("mapping", "m1", "L2-to-MC mapping: m1 | m2")
	interleave := flag.String("interleave", "line", "physical address interleaving: line | page")
	policy := flag.String("policy", "interleaved", "baseline page-placement policy: interleaved | firsttouch | ftnearest | osassisted")
	migrate := flag.String("migrate", "off", `online hot-page migration for the baseline and optimized runs (requires -interleave page): off | on | h<thr>w<win>c<cool>f<flits>t<stall>[g<pages>]`)
	show := flag.Bool("show", false, "print the transformed reference forms")
	simulate := flag.Bool("sim", true, "run the baseline/optimized/optimal simulation")
	traceOut := flag.String("trace", "", "write a Chrome trace_event file of the optimized run (chrome://tracing, Perfetto)")
	traceSample := flag.Int64("trace-sample", 1, "keep every Nth trace event")
	metricsOut := flag.String("metrics", "", "write a JSONL metrics dump of all three runs")
	progress := flag.Bool("progress", false, "print a live one-line status during simulation")
	report := flag.Bool("report", false, "print the post-run observability dashboard")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	profFlag := flag.Bool("prof", false, "attach the latency-attribution profiler and print per-stage attribution tables")
	profFolded := flag.String("prof-folded", "", "write the optimized run's attribution as folded stacks (flamegraph.pl); implies -prof")
	profPprof := flag.String("prof-pprof", "", "write the optimized run's attribution as a gzipped pprof protobuf (go tool pprof); implies -prof")
	serveAddr := flag.String("serve", "", "serve the live observability plane (/metrics, /progress, /profile) on this address")
	parallel := flag.Bool("parallel", false, "run the baseline/optimized/optimal simulations concurrently (identical results)")
	checkRun := flag.Bool("check", false, "attach the invariant checker to every run and fail on any violation")
	seed := flag.Uint64("seed", 0, "jitter seed; 0 keeps the historical stream of the recorded figures")
	replay := flag.String("replay", "", "re-run one sweep job from its canonical ID (see benchtab -jobs) and exit")
	cacheFlag := flag.String("trace-cache", "", `memoize trace generation: "mem" (in-process) or a directory for a persistent cache`)
	submit := flag.String("submit", "", "submit a sweep to a sweepd service at this base URL, wait, and print the results")
	submitApps := flag.String("apps", "", "-submit: comma-separated applications (empty: the full suite)")
	submitSchemes := flag.String("schemes", "", "-submit: comma-separated layout schemes (empty: all)")
	submitCap := flag.Int("cap", 0, "-submit: trace length cap per thread (0: full traces)")
	flag.Parse()

	if *replay != "" {
		return replayJob(*replay)
	}
	if *submit != "" {
		req := &experiments.Request{
			Cap:  *submitCap,
			Seed: *seed,
		}
		if *submitApps != "" {
			req.Apps = strings.Split(*submitApps, ",")
		}
		if *submitSchemes != "" {
			req.Schemes = strings.Split(*submitSchemes, ",")
		}
		return submitSweep(strings.TrimRight(*submit, "/"), req)
	}

	if *pprofAddr != "" {
		// Bind before the run so a bad address fails fast instead of racing
		// ListenAndServe in a goroutine; close cleanly on exit.
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		srv := &http.Server{Handler: http.DefaultServeMux}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "offchip: pprof:", err)
			}
		}()
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "offchip: pprof serving on %s\n", ln.Addr())
	}

	m := layout.Default8x8()
	switch *l2 {
	case "private":
	case "shared":
		m.L2 = layout.SharedL2
	default:
		return fmt.Errorf("unknown -l2 %q", *l2)
	}
	switch *interleave {
	case "line":
	case "page":
		m.Interleave = layout.PageInterleave
	default:
		return fmt.Errorf("unknown -interleave %q", *interleave)
	}
	placement := layout.PlacementCorners(m.MeshX, m.MeshY)
	var cm *layout.ClusterMapping
	var err error
	switch *mapping {
	case "m1":
		cm, err = layout.MappingM1(m, placement)
	case "m2":
		cm, err = layout.MappingM2(m, placement)
	default:
		return fmt.Errorf("unknown -mapping %q", *mapping)
	}
	if err != nil {
		return err
	}

	var prog *ir.Program
	var store *ir.DataStore
	var bench *workloads.App
	switch {
	case *src != "":
		text, err := os.ReadFile(*src)
		if err != nil {
			return err
		}
		prog, err = ir.Parse(string(text))
		if err != nil {
			return err
		}
		store = ir.NewDataStore()
	case *app != "":
		a, ok := workloads.ByName(*app)
		if !ok {
			return fmt.Errorf("unknown application %q (have %v)", *app, workloads.Names())
		}
		bench = a
		prog, store, err = a.Load()
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -src <file> or -app <name>")
	}

	res, err := layout.Optimize(prog, m, cm, &layout.Options{Approx: approx.NewProfiler(store)})
	if err != nil {
		return err
	}
	fmt.Printf("machine: %dx%d mesh, %d MCs (%s), %s, %s interleaving, mapping %s\n\n",
		m.MeshX, m.MeshY, m.NumMCs, placement.Name, m.L2, m.Interleave, cm.Name)
	fmt.Println(res.Report())

	if *show {
		fmt.Println("transformed references (Figure 9(c) forms):")
		for _, nest := range prog.Nests {
			for _, s := range nest.Body {
				for _, r := range s.Refs() {
					al := res.Layout(r.Array)
					if !al.Optimized {
						continue
					}
					if cr, err := al.RewriteRef(r); err == nil {
						fmt.Printf("  %-28s -> %s\n", r, cr)
					} else {
						fmt.Printf("  %-28s -> %s   (schematic: %v)\n", r, al.CustomizedForm(r), err)
					}
				}
			}
		}
		fmt.Println()
	}

	if !*simulate {
		return nil
	}
	if bench == nil {
		// Wrap the parsed program as an ad-hoc app for the comparison.
		bench = &workloads.App{Name: prog.Name, Source: string(mustRead(*src)), Demand: layout.DefaultDemand()}
	}

	wantProf := *profFlag || *profFolded != "" || *profPprof != ""
	opt := core.Options{Concurrent: *parallel, Seed: *seed, Check: *checkRun, Prof: wantProf}
	switch *policy {
	case "interleaved":
	case "firsttouch":
		opt.BaselinePolicy = sim.PolicyFirstTouch
	case "ftnearest":
		opt.BaselinePolicy = sim.PolicyFirstTouchNearest
	case "osassisted":
		opt.BaselinePolicy = sim.PolicyOSAssisted
	default:
		return fmt.Errorf("unknown -policy %q", *policy)
	}
	migSpec, err := mem.ParseMigrationSpec(*migrate)
	if err != nil {
		return err
	}
	opt.Migrate = migSpec
	if *cacheFlag != "" {
		dir := *cacheFlag
		if dir == "mem" {
			dir = "" // in-process only
		}
		tc, err := tracecache.New(dir)
		if err != nil {
			return err
		}
		opt.TraceCache = tc
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		tracer = obs.NewTracer(obs.TracerOptions{Chrome: f, Sample: *traceSample})
		opt.Observer = func(run string) *obs.Observer {
			if run == "optimized" {
				return &obs.Observer{Reg: obs.NewRegistry(), Tracer: tracer}
			}
			return nil
		}
	}
	if *progress {
		opt.OnProgress = liveProgress()
	}

	// The live observability plane binds before the runs start and watches
	// the registries as the simulations fill them; the attribution snapshot
	// appears on /profile once the runs retire.
	var (
		liveMu    sync.Mutex
		liveRegs  = map[string]*obs.Registry{}
		liveProfs = map[string]*prof.Profile{}
	)
	if *serveAddr != "" {
		prev := opt.Observer
		opt.Observer = func(run string) *obs.Observer {
			var o *obs.Observer
			if prev != nil {
				o = prev(run)
			}
			o = obs.OrNew(o)
			liveMu.Lock()
			liveRegs[run] = o.Reg
			liveMu.Unlock()
			return o
		}
		srv, err := prof.NewServer(prof.ServerConfig{
			Addr: *serveAddr,
			Registries: func() map[string]*obs.Registry {
				liveMu.Lock()
				defer liveMu.Unlock()
				out := make(map[string]*obs.Registry, len(liveRegs))
				for k, v := range liveRegs {
					out[k] = v
				}
				return out
			},
			Profiles: func() map[string]*prof.Profile {
				liveMu.Lock()
				defer liveMu.Unlock()
				out := make(map[string]*prof.Profile, len(liveProfs))
				for k, v := range liveProfs {
					out[k] = v
				}
				return out
			},
		})
		if err != nil {
			return err
		}
		srv.Start()
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "offchip: observability plane on http://%s\n", srv.Addr())
	}

	manifest := prof.NewManifest()
	manifest.Seed = *seed
	manifest.Config = map[string]string{
		"app": bench.Name, "l2": *l2, "mapping": *mapping, "interleave": *interleave,
		"check": strconv.FormatBool(*checkRun), "prof": strconv.FormatBool(wantProf),
		"trace-cache": *cacheFlag, "policy": *policy,
	}
	if migSpec != nil {
		manifest.Config["migrate"] = migSpec.String()
	}

	c, err := core.Compare(bench, m, cm, opt)
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "offchip: wrote %d trace events to %s (load in chrome://tracing or Perfetto)\n",
			tracer.Kept(), *traceOut)
	}
	if *checkRun {
		bad := 0
		for _, run := range []string{"baseline", "optimized", "optimal"} {
			vs := c.Checks[run]
			if len(vs) == 0 {
				fmt.Fprintf(os.Stderr, "offchip: check %-9s ok\n", run)
				continue
			}
			bad += len(vs)
			for _, v := range vs {
				fmt.Fprintf(os.Stderr, "offchip: check %-9s VIOLATION %s\n", run, v)
			}
		}
		if bad > 0 {
			return fmt.Errorf("invariant checker found %d violation(s)", bad)
		}
	}

	t := &stats.Table{
		Title:   "simulation (baseline vs optimized vs optimal)",
		Headers: []string{"metric", "baseline", "optimized", "optimal", "improvement"},
	}
	t.AddF("execution time (cycles)", c.Baseline.ExecTime, c.Optimized.ExecTime, c.Optimal.ExecTime, stats.Pct(c.ExecImprovement()))
	t.AddF("on-chip net latency", c.Baseline.OnChipNetAvg, c.Optimized.OnChipNetAvg, c.Optimal.OnChipNetAvg, stats.Pct(c.OnChipNetImprovement()))
	t.AddF("off-chip net latency", c.Baseline.OffChipNetAvg, c.Optimized.OffChipNetAvg, c.Optimal.OffChipNetAvg, stats.Pct(c.OffChipNetImprovement()))
	t.AddF("off-chip mem latency", c.Baseline.MemAvg, c.Optimized.MemAvg, c.Optimal.MemAvg, stats.Pct(c.MemImprovement()))
	t.AddF("off-chip queue wait", c.Baseline.QueueAvg, c.Optimized.QueueAvg, c.Optimal.QueueAvg, stats.Pct(c.QueueImprovement()))
	if c.Baseline.Migrations+c.Optimized.Migrations > 0 {
		t.AddF("page migrations", c.Baseline.Migrations, c.Optimized.Migrations, c.Optimal.Migrations, "-")
		t.AddF("migration copy msgs", c.Baseline.MigCopyMsgs, c.Optimized.MigCopyMsgs, c.Optimal.MigCopyMsgs, "-")
		t.AddF("migration stall cycles", c.Baseline.MigStallCycles, c.Optimized.MigStallCycles, c.Optimal.MigStallCycles, "-")
	}
	fmt.Println(t.String())

	if opt.TraceCache != nil {
		cs := opt.TraceCache.Stats()
		fmt.Fprintf(os.Stderr, "offchip: trace cache: %d hits, %d misses, %d disk hits, %d disk writes\n",
			cs.Hits, cs.Misses, cs.DiskHits, cs.DiskWrites)
	}

	if wantProf {
		liveMu.Lock()
		for run, p := range c.Profiles {
			liveProfs[run] = p
		}
		liveMu.Unlock()
		if err := printProfiles(c, *profFolded, *profPprof); err != nil {
			return err
		}
		if p := c.Profiles["optimized"]; p != nil {
			manifest.StageTotals = p.StageTotals()
		}
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, c); err != nil {
			return err
		}
		if err := manifest.Write(prof.ManifestPath(*metricsOut)); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "offchip: wrote metrics to %s (manifest %s)\n",
			*metricsOut, prof.ManifestPath(*metricsOut))
	}
	if *report {
		printDashboard(c, m)
	}
	return nil
}

// printProfiles renders the latency-attribution view of a finished
// comparison: the baseline-vs-optimized differential table (every component's
// per-access delta, summing to the end-to-end delta), per-stage quantiles of
// the optimized run, and the optional flamegraph exports.
func printProfiles(c *core.Comparison, foldedOut, pprofOut string) error {
	base, opt := c.Profiles["baseline"], c.Profiles["optimized"]
	for _, run := range []string{"baseline", "optimized", "optimal"} {
		if p := c.Profiles[run]; p != nil && len(p.Violations) > 0 {
			for _, v := range p.Violations {
				fmt.Fprintf(os.Stderr, "offchip: prof %-9s VIOLATION %s\n", run, v)
			}
		}
	}
	fmt.Println(prof.DiffTable("latency attribution (cycles/access, baseline vs optimized)", base, opt).String())
	fmt.Println(prof.QuantileTable("optimized run stage latency quantiles (cycles)", opt).String())
	if foldedOut != "" && opt != nil {
		if err := os.WriteFile(foldedOut, []byte(opt.FoldedStacks(c.App)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "offchip: wrote folded stacks to %s\n", foldedOut)
	}
	if pprofOut != "" && opt != nil {
		f, err := os.Create(pprofOut)
		if err != nil {
			return err
		}
		if err := opt.WritePprof(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "offchip: wrote pprof profile to %s (go tool pprof %s)\n", pprofOut, pprofOut)
	}
	return nil
}

// liveProgress returns a progress callback that keeps one status line
// updated on stderr: run name, simulated cycles, events/sec (wall clock),
// and in-flight misses. With -parallel the three runs report from separate
// goroutines, so the closure's state is mutex-guarded; the line then shows
// whichever run reported last.
func liveProgress() func(run string, p sim.Progress) {
	start := time.Now()
	var mu sync.Mutex
	var lastEvents int64
	lastWall := start
	return func(run string, p sim.Progress) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		rate := float64(p.Events-lastEvents) / now.Sub(lastWall).Seconds()
		lastEvents, lastWall = p.Events, now
		fmt.Fprintf(os.Stderr, "\r[%-9s] cycles=%-12d events=%-12d events/sec=%-12.0f outstanding=%-4d",
			run, p.Cycles, p.Events, rate, p.Outstanding)
	}
}

// replayJob re-runs one sweep job from its canonical ID and prints the
// headline comparison. The simulation is bit-identical to the same job's
// execution inside any parallel sweep (same derived seed, fresh state).
func replayJob(id string) error {
	out, err := runner.Replay(id)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %s (short %s)\n\n", out.ID, out.ShortID)
	if c := out.Comparison; c != nil {
		t := &stats.Table{
			Title:   "replay (baseline vs optimized vs optimal)",
			Headers: []string{"metric", "baseline", "optimized", "optimal", "improvement"},
		}
		t.AddF("execution time (cycles)", c.Baseline.ExecTime, c.Optimized.ExecTime, c.Optimal.ExecTime, stats.Pct(c.ExecImprovement()))
		t.AddF("off-chip mem latency", c.Baseline.MemAvg, c.Optimized.MemAvg, c.Optimal.MemAvg, stats.Pct(c.MemImprovement()))
		t.AddF("off-chip queue wait", c.Baseline.QueueAvg, c.Optimized.QueueAvg, c.Optimal.QueueAvg, stats.Pct(c.QueueImprovement()))
		fmt.Println(t.String())
	} else if r := out.Run; r != nil {
		fmt.Printf("exec time %d cycles, %d off-chip requests\n", r.ExecTime, r.OffChip)
	} else if a := out.Analysis; a != nil {
		fmt.Printf("arrays optimized %.1f%%, refs satisfied %.1f%%\n",
			a.PctArraysOptimized(), a.PctRefsSatisfied())
	}
	return nil
}

// submitSweep is the sweep-service client: POST the request to /submit,
// wait for every job to finish (polling /jobs/<id>), and render the same
// improvements table an in-process sweep would print — built entirely from
// the canonical result projections the service hands back.
func submitSweep(base string, req *experiments.Request) error {
	body, err := json.Marshal(sweepq.SubmitRequest{Request: req})
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var sub sweepq.SubmitResult
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "offchip: submitted %d jobs (%d new, %d cached, %d coalesced)\n",
		len(sub.IDs), sub.Accepted, sub.Cached, sub.Coalesced)

	// Wait for each job in submission order; the service dedups, so waiting
	// sequentially still tracks overall completion.
	statuses := make([]*sweepq.JobStatus, len(sub.IDs))
	for i, id := range sub.IDs {
		js, err := awaitJob(base, id)
		if err != nil {
			return err
		}
		statuses[i] = js
		fmt.Fprintf(os.Stderr, "\roffchip: %d/%d jobs done", i+1, len(sub.IDs))
	}
	fmt.Fprintln(os.Stderr)

	t := &stats.Table{
		Title:   "sweep service results (improvement vs baseline)",
		Headers: []string{"app", "l2", "interleave", "exec%", "mem%", "offchip-net%"},
	}
	failed := 0
	for _, js := range statuses {
		spec, err := runner.ParseJobID(js.ID)
		if err != nil {
			return err
		}
		if js.State == "failed" {
			failed++
			fmt.Fprintf(os.Stderr, "offchip: job %s failed: %s\n", js.ID, js.Err)
			continue
		}
		// The canonical projection carries the three metric blocks for
		// compare-mode jobs; decode just those and rebuild the comparison.
		var can struct {
			Baseline  *core.Metrics `json:"Baseline"`
			Optimized *core.Metrics `json:"Optimized"`
			Optimal   *core.Metrics `json:"Optimal"`
		}
		if err := json.Unmarshal(js.Canonical, &can); err != nil {
			return fmt.Errorf("job %s: decode canonical result: %w", js.ID, err)
		}
		if can.Baseline == nil || can.Optimized == nil {
			fmt.Fprintf(os.Stderr, "offchip: job %s is not a compare-mode job; skipping\n", js.ID)
			continue
		}
		c := core.Comparison{Baseline: *can.Baseline, Optimized: *can.Optimized}
		if can.Optimal != nil {
			c.Optimal = *can.Optimal
		}
		t.AddF(spec.App, orDefault(spec.L2, "private"), orDefault(spec.Interleave, "line"),
			100*c.ExecImprovement(), 100*c.MemImprovement(), 100*c.OffChipNetImprovement())
	}
	fmt.Println(t.String())
	if failed > 0 {
		return fmt.Errorf("%d job(s) failed", failed)
	}
	return nil
}

// awaitJob polls one job's status until it settles.
func awaitJob(base, id string) (*sweepq.JobStatus, error) {
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			return nil, fmt.Errorf("jobs: %w", err)
		}
		var js sweepq.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&js)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if js.State == "done" || js.State == "failed" {
			return &js, nil
		}
		time.Sleep(250 * time.Millisecond)
	}
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// writeMetrics dumps every run's registry as JSONL, one point per line,
// tagged with the run name.
func writeMetrics(path string, c *core.Comparison) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, run := range []string{"baseline", "optimized", "optimal"} {
		o := c.Observers[run]
		if o == nil {
			continue
		}
		until := c.Baseline.ExecTime
		switch run {
		case "optimized":
			until = c.Optimized.ExecTime
		case "optimal":
			until = c.Optimal.ExecTime
		}
		points := o.Reg.Snapshot(until)
		for i := range points {
			points[i].Run = run
		}
		if err := obs.WriteJSONL(f, points); err != nil {
			return err
		}
	}
	return f.Close()
}

// printDashboard renders the post-run observability dashboard: the mesh
// link heat grids, the per-MC request mix and hottest banks (baseline vs
// optimized), the Figure 15 hop CDF, and the structural metric diff.
func printDashboard(c *core.Comparison, m layout.Machine) {
	base := c.Observers["baseline"].Reg
	opt := c.Observers["optimized"].Reg
	fmt.Println("== observability dashboard ==")
	fmt.Println()
	fmt.Println("--- baseline ---")
	fmt.Println(obs.LinkHeatGrid(base, m.MeshX, m.MeshY))
	fmt.Println(obs.MCRequestMix(base, c.Baseline.ExecTime).String())
	fmt.Println(obs.HottestBanks(base, 10).String())
	fmt.Println("--- optimized ---")
	fmt.Println(obs.LinkHeatGrid(opt, m.MeshX, m.MeshY))
	fmt.Println(obs.MCRequestMix(opt, c.Optimized.ExecTime).String())
	fmt.Println(obs.HottestBanks(opt, 10).String())
	fmt.Println(obs.HottestLinks(opt, 10).String())
	fmt.Println(obs.HopCDFTable(opt).String())
	fmt.Println(obs.DiffTable(base, opt).String())
}

func mustRead(path string) []byte {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	return b
}
