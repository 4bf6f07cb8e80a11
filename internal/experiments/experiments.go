// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each Fig/Table function runs the required
// compile-simulate comparisons and returns a typed result that renders as a
// fixed-width table; cmd/benchtab and the bench_test.go benchmarks are thin
// wrappers around this package. The per-experiment index in DESIGN.md maps
// each function to the paper's figure.
package experiments

import (
	"fmt"
	"strings"

	"offchip/internal/core"
	"offchip/internal/layout"
	"offchip/internal/runner"
	"offchip/internal/stats"
	"offchip/internal/tracecache"
	"offchip/internal/workloads"
)

// Config selects what to run and how long the traces are.
type Config struct {
	// Apps restricts the suite (nil: all 13).
	Apps []string
	// MaxAccessesPerThread shortens traces for smoke tests (0: full traces,
	// the setting every reported number uses).
	MaxAccessesPerThread int
	// Parallel is the worker count for the job-sharded experiments (0 or
	// 1: sequential). Results are bit-identical at any worker count.
	Parallel int
	// Seed decorrelates the simulator's jitter stream per job (0: the
	// historical stream every recorded figure uses).
	Seed uint64
	// OnJob, when set, receives live per-job completion events.
	OnJob func(runner.JobEvent)
	// Prof attaches the latency-attribution profiler to every job
	// (observation only — job IDs and results are unchanged); per-run
	// profiles land on each JobOutcome.Profiles.
	Prof bool
	// TraceCache memoizes trace generation across every job and experiment
	// sharing this config (see internal/tracecache). Wall-clock only: cached
	// streams are byte-identical to freshly generated ones, and job IDs are
	// unchanged.
	TraceCache *tracecache.Cache
	// Migrate selects the hot-page migration spec FigMig's dynamic and
	// hybrid runs use: "" means the default mem.MigrationSpec ("on"), or a
	// compact spec like "h16w1024c2f0t64". Other experiments ignore it.
	Migrate string
}

func (c Config) apps() ([]*workloads.App, error) {
	if len(c.Apps) == 0 {
		return workloads.All(), nil
	}
	var out []*workloads.App
	for _, name := range c.Apps {
		a, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown application %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

func (c Config) coreOpts() core.Options {
	return core.Options{MaxAccessesPerThread: c.MaxAccessesPerThread, Seed: c.Seed, TraceCache: c.TraceCache}
}

// spec starts a job spec carrying the config-wide knobs. Callers fill in
// the per-job fields; enumeration everywhere walks slices in fixed order
// (never maps), so a suite's job list — and therefore its job IDs — is
// stable across runs.
func (c Config) spec(mode runner.Mode, app string) runner.JobSpec {
	return runner.JobSpec{
		Mode: mode, App: app, Cap: c.MaxAccessesPerThread, Seed: c.Seed,
		Prof: c.Prof, Cache: c.TraceCache,
	}
}

// runJobs shards the specs across c.Parallel workers and fails on the
// first job error (in input order).
func (c Config) runJobs(specs []runner.JobSpec) (*runner.Result, error) {
	workers := c.Parallel
	if workers <= 0 {
		workers = 1
	}
	res, err := runner.Run(specs, runner.Options{Workers: workers, OnJob: c.OnJob})
	if err != nil {
		return nil, err
	}
	if err := res.FirstError(); err != nil {
		return nil, err
	}
	return res, nil
}

// FigResult is a uniform per-application result matrix with a trailing
// average row, rendering as the bar groups of the paper's figures.
type FigResult struct {
	ID      string
	Title   string
	Columns []string // value column names (after the App column)
	Rows    []AppRow
	Average []float64
}

// AppRow is one application's values.
type AppRow struct {
	App    string
	Values []float64
}

// finish computes the average row.
func (f *FigResult) finish() {
	if len(f.Rows) == 0 {
		return
	}
	f.Average = make([]float64, len(f.Columns))
	for _, r := range f.Rows {
		for i, v := range r.Values {
			f.Average[i] += v
		}
	}
	for i := range f.Average {
		f.Average[i] /= float64(len(f.Rows))
	}
}

// Value returns the named column for the named application row.
func (f *FigResult) Value(app, column string) (float64, bool) {
	col := -1
	for i, c := range f.Columns {
		if c == column {
			col = i
		}
	}
	if col == -1 {
		return 0, false
	}
	for _, r := range f.Rows {
		if r.App == app {
			return r.Values[col], true
		}
	}
	return 0, false
}

// Table renders the result.
func (f *FigResult) Table() string {
	t := &stats.Table{
		Title:   fmt.Sprintf("%s: %s", f.ID, f.Title),
		Headers: append([]string{"app"}, f.Columns...),
	}
	for _, r := range f.Rows {
		cells := []any{r.App}
		for _, v := range r.Values {
			cells = append(cells, v)
		}
		t.AddF(cells...)
	}
	if f.Average != nil {
		cells := []any{"AVERAGE"}
		for _, v := range f.Average {
			cells = append(cells, v)
		}
		t.AddF(cells...)
	}
	return t.String()
}

func (f *FigResult) String() string { return f.Table() }

// defaultMachine returns the Table 1 platform with the default M1 mapping
// (Figure 8a) for the requested interleaving.
func defaultMachine(g layout.Granularity) (layout.Machine, *layout.ClusterMapping, error) {
	m := layout.Default8x8()
	m.Interleave = g
	cm, err := layout.MappingM1(m, layout.PlacementCorners(m.MeshX, m.MeshY))
	return m, cm, err
}

// improvementSuite runs the three-way comparison for every app (one job
// each, sharded across cfg.Parallel workers) and returns the four Figure
// 14/16 metrics (percent improvements). tmpl carries the machine knobs;
// its App field is overwritten per job.
func improvementSuite(cfg Config, id, title string, tmpl runner.JobSpec) (*FigResult, error) {
	apps, err := cfg.apps()
	if err != nil {
		return nil, err
	}
	specs := make([]runner.JobSpec, len(apps))
	for i, app := range apps {
		s := tmpl
		s.App = app.Name
		specs[i] = s
	}
	res, err := cfg.runJobs(specs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	f := &FigResult{
		ID:      id,
		Title:   title,
		Columns: []string{"onchip-net%", "offchip-net%", "mem%", "queue%", "exec%"},
	}
	for i, app := range apps {
		c := res.Outcomes[i].Comparison
		f.Rows = append(f.Rows, AppRow{App: app.Name, Values: []float64{
			100 * c.OnChipNetImprovement(),
			100 * c.OffChipNetImprovement(),
			100 * c.MemImprovement(),
			100 * c.QueueImprovement(),
			100 * c.ExecImprovement(),
		}})
	}
	f.finish()
	return f, nil
}

// execSuite runs the comparison across several machine variants and
// reports one exec-improvement column per variant. Jobs are enumerated
// app-major (apps[i] × variants[j] at index i·len(variants)+j).
func execSuite(cfg Config, id, title string, variants []variant) (*FigResult, error) {
	apps, err := cfg.apps()
	if err != nil {
		return nil, err
	}
	specs := make([]runner.JobSpec, 0, len(apps)*len(variants))
	for _, app := range apps {
		for _, v := range variants {
			s := v.spec
			s.Mode = runner.ModeCompare
			s.App = app.Name
			s.Cap = cfg.MaxAccessesPerThread
			s.Seed = cfg.Seed
			s.Cache = cfg.TraceCache
			specs = append(specs, s)
		}
	}
	res, err := cfg.runJobs(specs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	f := &FigResult{ID: id, Title: title}
	for _, v := range variants {
		f.Columns = append(f.Columns, v.name+" exec%")
	}
	for i, app := range apps {
		row := AppRow{App: app.Name}
		for j := range variants {
			c := res.Outcomes[i*len(variants)+j].Comparison
			row.Values = append(row.Values, 100*c.ExecImprovement())
		}
		f.Rows = append(f.Rows, row)
	}
	f.finish()
	return f, nil
}

// variant names one machine configuration of an execSuite (the name feeds
// the column header; the spec's App/Cap/Seed fields are filled per job).
type variant struct {
	name string
	spec runner.JobSpec
}

// AllIDs lists the experiment identifiers benchtab accepts.
func AllIDs() []string {
	return []string{
		"fig3", "fig4", "table2", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
		"fig24", "fig25", "figmig", "figmix", "figtune",
	}
}

// Run executes one experiment by ID and returns its rendered table.
func Run(id string, cfg Config) (string, error) {
	switch strings.ToLower(id) {
	case "fig3":
		r, err := Fig3(cfg)
		return render(r, err)
	case "fig4":
		r, err := Fig4(cfg)
		return render(r, err)
	case "table2":
		r, err := Table2(cfg)
		return render(r, err)
	case "fig13":
		r, err := Fig13(cfg)
		if err != nil {
			return "", err
		}
		return r.Table(), nil
	case "fig14":
		r, err := Fig14(cfg)
		return render(r, err)
	case "fig15":
		r, err := Fig15(cfg)
		if err != nil {
			return "", err
		}
		return r.Table(), nil
	case "fig16":
		r, err := Fig16(cfg)
		return render(r, err)
	case "fig17":
		r, err := Fig17(cfg)
		return render(r, err)
	case "fig18":
		r, err := Fig18(cfg)
		return render(r, err)
	case "fig19":
		r, err := Fig19(cfg)
		return render(r, err)
	case "fig20":
		r, err := Fig20(cfg)
		return render(r, err)
	case "fig21":
		r, err := Fig21(cfg)
		return render(r, err)
	case "fig22":
		r, err := Fig22(cfg)
		return render(r, err)
	case "fig23":
		r, err := Fig23(cfg)
		return render(r, err)
	case "fig24":
		r, err := Fig24(cfg)
		return render(r, err)
	case "fig25":
		r, err := Fig25(cfg)
		if err != nil {
			return "", err
		}
		return r.Table(), nil
	case "figmig":
		r, err := FigMig(cfg)
		return render(r, err)
	case "figmix":
		r, err := FigMix(cfg)
		return render(r, err)
	case "figtune":
		r, err := FigTune(cfg)
		return render(r, err)
	default:
		return "", fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(AllIDs(), ", "))
	}
}

func render(f *FigResult, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return f.Table(), nil
}
