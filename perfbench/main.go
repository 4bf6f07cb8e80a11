// Command perfbench is the reproduction's benchmark: it drives the
// simulator through its public entry points (runner.Run, core.MixWorkloads
// with sim.Run, and a sweepq.Fleet as the runner's executor), reports host
// time end to end with tracing off, and, with -trace 1, reports per-layer
// numbers from a separate traced run. Every simulated output is checked
// exactly against golden digests or, for seeds without a golden, against
// the run's own first pass. README.md beside this file defines every
// metric and workload.
//
//	bash perfbench/run.sh --workload suite-cold --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// unit names used by the metric tables.
const (
	uS     = "s"
	uMS    = "ms"
	uMB    = "MB"
	uRate  = "accesses/s"
	uFrac  = "frac"
	uCount = "count"
	uPct   = "%"
)

// endToEnd lists the host-time metrics every untraced run prints, on every
// workload, in the order they are printed.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", uS},
	{"cpu_s", uS},
	{"sim_accesses_per_s", uRate},
	{"job_p50_ms", uMS},
	{"job_p90_ms", uMS},
	{"peak_rss_mb", uMB},
	{"setup_s", uS},
}

// perLayer lists the metrics a traced run prints, on every workload; a
// layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"workloads.load_ms", uMS},
	{"layout.optimize_ms", uMS},
	{"trace.generate_s", uS},
	{"trace.ns_per_access", "ns/access"},
	{"trace.allocs_per_access", "allocs/access"},
	{"trace.used_ratio", uFrac},
	{"trace.compose_ms", uMS},
	{"tracecache.decode_ns_per_access", "ns/access"},
	{"sim.run_s", uS},
	{"sim.events", uCount},
	{"sim.ns_per_event", "ns/event"},
	{"sim.allocs_per_event", "allocs/event"},
	{"cpu.engine", uFrac},
	{"cpu.cache", uFrac},
	{"cpu.noc", uFrac},
	{"cpu.mesh", uFrac},
	{"cpu.dram", uFrac},
	{"cpu.mem", uFrac},
	{"cpu.obs", uFrac},
	{"cpu.sim", uFrac},
	{"cpu.trace", uFrac},
	{"cpu.ir", uFrac},
	{"cpu.tracecache", uFrac},
	{"cpu.sweepq", uFrac},
	{"cpu.gc", uFrac},
	{"cpu.runtime", uFrac},
	{"cpu.other", uFrac},
	{"cache.l1_hit_ratio", uFrac},
	{"cache.offchip_share", uFrac},
	{"noc.msgs", uCount},
	{"noc.hops_per_msg", "hops/msg"},
	{"dram.served", uCount},
	{"dram.row_hit_ratio", uFrac},
	{"dram.queue_wait_cycles", "cycles"},
	{"mem.migrations", uCount},
	{"mem.copy_msgs", uCount},
	{"mem.stall_cycles", "cycles"},
	{"runner.overhead_ms_per_job", "ms/job"},
	{"sweepq.overhead_ms_per_job", "ms/job"},
	{"sweepq.result_frame_kb", "KiB/job"},
	{"sweepq.spawns", uCount},
	{"sweepq.crashes", uCount},
	{"bench.tracing_overhead_pct", uPct},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	host      hostFacts
	// digests are the outputs this run checked that golden.json does not
	// hold, by job ID.
	digests map[string]string
}

func main() {
	if os.Getenv(workerEnv) != "" {
		os.Exit(workerMain())
	}
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Uint64("seed", goldenSeed, fmt.Sprintf("workload seed, forwarded to JobSpec.Seed and sim.Config.Seed; %d is held out for confirming claims", heldOutSeed))
		seconds = flag.Float64("seconds", 20, "measure for at least this many seconds")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		record  = flag.String("record-golden", "", "run every workload's jobs at the golden seed through runner.Run and write their digests to this file")
	)
	flag.Parse()
	if *record != "" {
		if err := recordGolden(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	golden, err := loadGolden(goldenPath())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		size:     fullSize,
		golden:   golden,
		outDir:   filepath.Join(".bench_build", "out"),
	}
	res, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, res)
}

// goldenPath locates golden.json beside the sources: the benchmark runs
// from the repository root, its test from this directory.
func goldenPath() string {
	if _, err := os.Stat("golden.json"); err == nil {
		return "golden.json"
	}
	return filepath.Join("perfbench", "golden.json")
}

// printResult prints the host facts and the human-readable table, then
// the JSON line.
func printResult(w *os.File, res *result) {
	fmt.Fprintf(w, "host %s\n", res.host)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	frac := float64(res.Failed) / float64(res.Attempted)
	fmt.Fprintf(w, "%-34s %16.6g %s (%d of %d jobs)\n", "failed_jobs_frac", frac, uFrac, res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		// Only a non-finite value can fail to marshal; that is a bug in a
		// metric's arithmetic, so report it instead of printing a result.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(line))
}

// finite replaces a non-finite value (a ratio over an empty layer) by 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// procs is the parallelism every workload uses: the host's CPUs, capped at
// two so that runs on different hosts stay comparable.
func procs() int {
	return min(runtime.NumCPU(), 2)
}
