// Package runner shards independent experiment jobs — one (workload,
// layout scheme, mesh/MC configuration, seed) simulation each — across a
// work-stealing pool of workers. Every job gets a private observability
// registry and a jitter seed derived from a stable hash of its job ID, so
// a parallel sweep is bit-identical to a sequential one and any single job
// can be replayed from its ID alone (the -replay flag of cmd/benchtab).
// After the jobs finish, the per-job registries fold into one merged
// registry (see obs.MergeScoped) from which the Figure 13/15/18 tables are
// rendered.
package runner

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"offchip/internal/approx"
	"offchip/internal/core"
	"offchip/internal/layout"
	"offchip/internal/mem"
	"offchip/internal/obs"
	"offchip/internal/prof"
	"offchip/internal/sim"
	"offchip/internal/tracecache"
	"offchip/internal/workloads"
)

// Mode selects what a job runs.
type Mode string

const (
	// ModeCompare runs the full three-way comparison (baseline, optimized,
	// optimal) — the shape most figures need.
	ModeCompare Mode = "compare"
	// ModeBaseline simulates only the unoptimized trace (Figure 3).
	ModeBaseline Mode = "baseline"
	// ModeOptimized simulates only the optimized trace (Figure 18).
	ModeOptimized Mode = "optimized"
	// ModeAnalyze runs only the compiler pass, no simulation (Table 2).
	ModeAnalyze Mode = "analyze"
)

// JobSpec identifies one independent experiment job. The zero value of
// every field means "default"; Normalized fills the defaults in so that
// ID, hashing, and replay always see one canonical form.
type JobSpec struct {
	Mode       Mode
	App        string // workload name (required unless Mix is set)
	L2         string // "private" | "shared"
	Interleave string // "line" | "page"
	Mapping    string // "m1" | "m2"
	Placement  string // "corners" | "diamond" | "topbottom" | "perimeter"
	MeshX      int
	MeshY      int
	NumMCs     int
	Threads    int    // total software threads (0: one per core)
	BanksPerMC int    // 0: calibrated default
	MLPWindow  int    // 0: default
	Policy     string // baseline page policy: "interleaved" | "firsttouch" | "osassisted"
	Cap        int    // MaxAccessesPerThread (0: full traces)
	Seed       uint64 // sweep seed; 0 keeps the historical jitter stream

	// Mix, when set, replaces App with a phase-changing multiprogrammed mix
	// (workloads.MixSpec compact form, e.g. "mix2(apsi@16+gafort@0)"): the
	// job simulates the composed workload instead of a single application.
	// The form contains no comma or equals sign, so it embeds verbatim as
	// the ID's mix= field — appended only when set, like mig=, so
	// single-app IDs keep their historical bytes. Mix jobs run ModeBaseline
	// or ModeOptimized (the per-app compiler analysis of compare/analyze has
	// no composed counterpart), and exactly one of App and Mix must be set.
	Mix string

	// Migrate enables online hot-page migration: "" (or "off") runs the
	// static policies unchanged, "on" the default mem.MigrationSpec, and a
	// compact spec ("h16w1024c2f0t64") a custom one. Migration changes
	// results, so unlike Prof it IS part of the job identity — the ID gains
	// a mig= field exactly when Migrate is set, and IDs without one keep
	// their historical form. Requires page interleaving; applied to the
	// baseline and optimized runs, never the optimal scheme.
	Migrate string

	// Prof attaches the latency-attribution profiler to the job's runs and
	// fills JobOutcome.Profiles. Pure observation: it is deliberately
	// excluded from ID/ParseJobID so profiling a job never changes its
	// identity, seed derivation, or replayed results.
	Prof bool

	// Cache, when set, memoizes trace generation across the sweep's jobs
	// (see internal/tracecache). Cached streams are byte-identical to
	// freshly generated ones, so like Prof it is excluded from the ID —
	// caching never changes a job's identity or results.
	Cache *tracecache.Cache
}

// Normalized returns the spec with every defaulted field made explicit.
func (s JobSpec) Normalized() JobSpec {
	if s.Mode == "" {
		s.Mode = ModeCompare
	}
	if s.L2 == "" {
		s.L2 = "private"
	}
	if s.Interleave == "" {
		s.Interleave = "line"
	}
	if s.Mapping == "" {
		s.Mapping = "m1"
	}
	if s.Placement == "" {
		s.Placement = "corners"
	}
	if s.MeshX == 0 {
		s.MeshX = 8
	}
	if s.MeshY == 0 {
		s.MeshY = 8
	}
	if s.NumMCs == 0 {
		s.NumMCs = 4
	}
	if s.Policy == "" {
		s.Policy = "interleaved"
	}
	if s.Migrate != "" {
		// Canonicalize ("on" → the default spec's compact form, "off" → "")
		// so equal migration configurations always render equal IDs. An
		// unparseable spec is left verbatim; Build reports the error.
		if sp, err := mem.ParseMigrationSpec(s.Migrate); err == nil {
			if sp == nil {
				s.Migrate = ""
			} else {
				s.Migrate = sp.String()
			}
		}
	}
	if s.Mix != "" {
		// Mix specs are strictly canonical already (ParseMixSpec rejects any
		// other spelling), so this only normalizes a parseable spec to itself
		// and clears "" round-trips; an unparseable one is left verbatim for
		// Build/execute to report.
		if sp, err := workloads.ParseMixSpec(s.Mix); err == nil && sp != nil {
			s.Mix = sp.String()
		}
	}
	return s
}

// ID renders the canonical, fully parseable job identifier. Two specs
// that normalize equal have equal IDs; ParseJobID inverts it exactly.
func (s JobSpec) ID() string {
	n := s.Normalized()
	id := fmt.Sprintf(
		"j1:mode=%s,app=%s,l2=%s,il=%s,map=%s,place=%s,mesh=%dx%d,mcs=%d,threads=%d,banks=%d,mlp=%d,pol=%s,cap=%d,seed=%d",
		n.Mode, n.App, n.L2, n.Interleave, n.Mapping, n.Placement,
		n.MeshX, n.MeshY, n.NumMCs, n.Threads, n.BanksPerMC, n.MLPWindow,
		n.Policy, n.Cap, n.Seed)
	if n.Migrate != "" {
		// Appended only when set, so every pre-migration job ID (and every
		// recorded replay handle) is unchanged.
		id += ",mig=" + n.Migrate
	}
	if n.Mix != "" {
		id += ",mix=" + n.Mix
	}
	return id
}

// ShortID is a compact fingerprint of the ID, used as the job=… label in
// merged registries (the full ID contains the label syntax's own
// delimiters).
func (s JobSpec) ShortID() string {
	return fmt.Sprintf("j-%016x", fnv64(s.ID()))
}

// ParseJobID inverts ID. It accepts exactly the canonical form (version
// prefix "j1:", comma-separated k=v fields, each key at most once).
func ParseJobID(id string) (JobSpec, error) {
	var s JobSpec
	body, ok := strings.CutPrefix(id, "j1:")
	if !ok {
		return s, fmt.Errorf("runner: job ID %q lacks the j1: prefix", id)
	}
	seen := map[string]bool{}
	for _, field := range strings.Split(body, ",") {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return s, fmt.Errorf("runner: job ID field %q is not k=v", field)
		}
		if seen[k] {
			return s, fmt.Errorf("runner: job ID repeats field %q", k)
		}
		seen[k] = true
		var err error
		switch k {
		case "mode":
			s.Mode = Mode(v)
		case "app":
			s.App = v
		case "l2":
			s.L2 = v
		case "il":
			s.Interleave = v
		case "map":
			s.Mapping = v
		case "place":
			s.Placement = v
		case "mesh":
			x, y, ok := strings.Cut(v, "x")
			if !ok {
				return s, fmt.Errorf("runner: mesh %q is not WxH", v)
			}
			if s.MeshX, err = strconv.Atoi(x); err == nil {
				s.MeshY, err = strconv.Atoi(y)
			}
		case "mcs":
			s.NumMCs, err = strconv.Atoi(v)
		case "threads":
			s.Threads, err = strconv.Atoi(v)
		case "banks":
			s.BanksPerMC, err = strconv.Atoi(v)
		case "mlp":
			s.MLPWindow, err = strconv.Atoi(v)
		case "pol":
			s.Policy = v
		case "cap":
			s.Cap, err = strconv.Atoi(v)
		case "seed":
			s.Seed, err = strconv.ParseUint(v, 10, 64)
		case "sample":
			return s, fmt.Errorf("runner: job ID field sample=%s: sampled simulation was removed; re-run the job without the sample= field", v)
		case "mig":
			if _, err = mem.ParseMigrationSpec(v); err == nil {
				s.Migrate = v
			}
		case "mix":
			if _, err = workloads.ParseMixSpec(v); err == nil {
				s.Mix = v
			}
		default:
			return s, fmt.Errorf("runner: unknown job ID field %q", k)
		}
		if err != nil {
			return s, fmt.Errorf("runner: job ID field %s=%q: %w", k, v, err)
		}
	}
	if s.App == "" && s.Mix == "" {
		return s, fmt.Errorf("runner: job ID %q names no app or mix", id)
	}
	if s.App != "" && s.Mix != "" {
		return s, fmt.Errorf("runner: job ID %q names both an app and a mix", id)
	}
	return s.Normalized(), nil
}

// fnv64 is FNV-1a, inlined so job identity never depends on library
// changes.
func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// splitmix64 finalizes a seed so correlated inputs yield decorrelated
// streams.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// simSeed derives the per-job jitter seed: 0 stays 0 (the historical
// stream every recorded figure uses), anything else is mixed with the job
// ID hash so two jobs in the same sweep never share a stream.
func (s JobSpec) simSeed() uint64 {
	if s.Seed == 0 {
		return 0
	}
	return splitmix64(fnv64(s.ID()) ^ s.Seed)
}

// Build resolves the spec into a machine, cluster mapping, and core
// options — the exact inputs core.Compare takes.
func (s JobSpec) Build() (layout.Machine, *layout.ClusterMapping, core.Options, error) {
	n := s.Normalized()
	var opt core.Options
	m := layout.Default8x8()
	m.MeshX, m.MeshY = n.MeshX, n.MeshY
	m.NumMCs = n.NumMCs
	switch n.L2 {
	case "private":
		m.L2 = layout.PrivateL2
	case "shared":
		m.L2 = layout.SharedL2
	default:
		return m, nil, opt, fmt.Errorf("runner: unknown L2 organization %q", n.L2)
	}
	switch n.Interleave {
	case "line":
		m.Interleave = layout.LineInterleave
	case "page":
		m.Interleave = layout.PageInterleave
	default:
		return m, nil, opt, fmt.Errorf("runner: unknown interleaving %q", n.Interleave)
	}
	var p *layout.MCPlacement
	var err error
	switch n.Placement {
	case "corners":
		p = layout.PlacementCorners(m.MeshX, m.MeshY)
	case "diamond":
		p = layout.PlacementDiamond(m.MeshX, m.MeshY)
	case "topbottom":
		p = layout.PlacementTopBottom(m.MeshX, m.MeshY)
	case "perimeter":
		p, err = layout.PlacementPerimeter(m.MeshX, m.MeshY, m.NumMCs)
		if err != nil {
			return m, nil, opt, fmt.Errorf("runner: %w", err)
		}
	default:
		return m, nil, opt, fmt.Errorf("runner: unknown placement %q", n.Placement)
	}
	var cm *layout.ClusterMapping
	switch n.Mapping {
	case "m1":
		cm, err = layout.MappingM1(m, p)
	case "m2":
		cm, err = layout.MappingM2(m, p)
	default:
		return m, nil, opt, fmt.Errorf("runner: unknown mapping %q", n.Mapping)
	}
	if err != nil {
		return m, nil, opt, fmt.Errorf("runner: %w", err)
	}
	opt = core.Options{
		Threads:              n.Threads,
		MaxAccessesPerThread: n.Cap,
		MLPWindow:            n.MLPWindow,
		BanksPerMC:           n.BanksPerMC,
		Seed:                 n.simSeed(),
		TraceCache:           s.Cache,
	}
	if n.Migrate != "" {
		sp, err := mem.ParseMigrationSpec(n.Migrate)
		if err != nil {
			return m, nil, opt, fmt.Errorf("runner: %w", err)
		}
		if sp != nil && m.Interleave != layout.PageInterleave {
			return m, nil, opt, fmt.Errorf("runner: migration (mig=%s) requires il=page", n.Migrate)
		}
		opt.Migrate = sp
	}
	switch n.Policy {
	case "interleaved":
		opt.BaselinePolicy = sim.PolicyInterleaved
	case "firsttouch":
		opt.BaselinePolicy = sim.PolicyFirstTouch
	case "ftnearest":
		opt.BaselinePolicy = sim.PolicyFirstTouchNearest
	case "osassisted":
		opt.BaselinePolicy = sim.PolicyOSAssisted
	default:
		return m, nil, opt, fmt.Errorf("runner: unknown policy %q", n.Policy)
	}
	return m, cm, opt, nil
}

// JobOutcome is everything one job produced. Exactly one of Comparison,
// Run, or Analysis is set (by Mode); Observers and ExecTimes carry the
// per-run registries and end times the merged view is built from.
type JobOutcome struct {
	Spec    JobSpec
	ID      string
	ShortID string

	Comparison *core.Comparison         // ModeCompare
	Run        *sim.Result              // ModeBaseline / ModeOptimized
	Analysis   *layout.Result           // ModeAnalyze
	Observers  map[string]*obs.Observer // run name → observer
	ExecTimes  map[string]int64         // run name → ExecTime (merge horizon)
	Profiles   map[string]*prof.Profile // run name → attribution (Spec.Prof only)

	Err    error
	Worker int   // which worker executed the job (not deterministic)
	WallNS int64 // job wall-clock (not deterministic)

	// Canonical, when non-empty, is a precomputed deterministic projection
	// that CanonicalJSON returns verbatim. The sweep service's fleet
	// executor sets it from the worker's wire form, so a remotely executed
	// outcome projects byte-identically even for modes (analyze) whose
	// inputs are not reconstructible from the projection itself.
	Canonical json.RawMessage
}

// canonicalOutcome is the deterministic projection of a JobOutcome — the
// part that must be byte-identical between sequential, parallel, and
// replayed executions. Worker and WallNS are deliberately absent.
type canonicalOutcome struct {
	ID        string
	Baseline  *core.Metrics `json:",omitempty"`
	Optimized *core.Metrics `json:",omitempty"`
	Optimal   *core.Metrics `json:",omitempty"`
	PctArrays float64
	PctRefs   float64
	Run       *sim.Result `json:",omitempty"`
}

// CanonicalJSON serializes the deterministic portion of the outcome. The
// differential determinism tests compare these bytes across execution
// strategies.
func (o *JobOutcome) CanonicalJSON() ([]byte, error) {
	if o.Err != nil {
		return nil, o.Err
	}
	if len(o.Canonical) > 0 {
		return o.Canonical, nil
	}
	c := canonicalOutcome{ID: o.ID, Run: o.Run}
	if o.Comparison != nil {
		c.Baseline = &o.Comparison.Baseline
		c.Optimized = &o.Comparison.Optimized
		c.Optimal = &o.Comparison.Optimal
		c.PctArrays = o.Comparison.PctArraysOptimized
		c.PctRefs = o.Comparison.PctRefsSatisfied
	}
	if o.Analysis != nil {
		c.PctArrays = o.Analysis.PctArraysOptimized()
		c.PctRefs = o.Analysis.PctRefsSatisfied()
	}
	return json.Marshal(c)
}

// execute runs the job and never panics: compiler or simulator panics are
// captured into Err so one bad job cannot take down a sweep.
func (s JobSpec) execute() (out *JobOutcome) {
	n := s.Normalized()
	out = &JobOutcome{
		Spec:      n,
		ID:        n.ID(),
		ShortID:   n.ShortID(),
		Observers: map[string]*obs.Observer{},
		ExecTimes: map[string]int64{},
	}
	defer func() {
		if r := recover(); r != nil {
			out.Err = fmt.Errorf("runner: job %s panicked: %v", out.ID, r)
		}
	}()
	var mix *workloads.MixSpec
	if n.Mix != "" {
		if n.App != "" {
			out.Err = fmt.Errorf("runner: job %s names both an app and a mix", out.ID)
			return out
		}
		sp, err := workloads.ParseMixSpec(n.Mix)
		if err != nil {
			out.Err = err
			return out
		}
		mix = sp
	}
	var app *workloads.App
	if mix == nil {
		a, ok := workloads.ByName(n.App)
		if !ok {
			out.Err = fmt.Errorf("runner: unknown application %q", n.App)
			return out
		}
		app = a
	}
	m, cm, opt, err := n.Build()
	if err != nil {
		out.Err = err
		return out
	}
	if mix != nil && n.Mode != ModeBaseline && n.Mode != ModeOptimized {
		out.Err = fmt.Errorf("runner: mix jobs run mode=baseline or mode=optimized, not %s (the per-app compiler analysis of compare/analyze has no composed counterpart)", n.Mode)
		return out
	}
	switch n.Mode {
	case ModeCompare:
		opt.Prof = n.Prof
		c, err := core.Compare(app, m, cm, opt)
		if err != nil {
			out.Err = err
			return out
		}
		out.Comparison = c
		out.Observers = c.Observers
		out.ExecTimes = map[string]int64{
			"baseline":  c.Baseline.ExecTime,
			"optimized": c.Optimized.ExecTime,
			"optimal":   c.Optimal.ExecTime,
		}
		out.Profiles = c.Profiles
	case ModeBaseline, ModeOptimized:
		var baseW, optW *sim.Workload
		var err error
		if mix != nil {
			baseW, optW, err = core.MixWorkloads(*mix, m, cm, opt)
		} else {
			baseW, optW, _, err = core.Workloads(app, m, cm, opt)
		}
		if err != nil {
			out.Err = err
			return out
		}
		cfg := core.SimConfig(m, cm, opt)
		cfg.Policy = opt.BaselinePolicy
		w := baseW
		run := "baseline"
		if n.Mode == ModeOptimized {
			w, run = optW, "optimized"
			if m.Interleave == layout.PageInterleave {
				// Optimized runs under page interleaving need the layout
				// pass's page placement honored, exactly as core.Compare
				// does.
				cfg.Policy = sim.PolicyOSAssisted
			}
		}
		o := obs.OrNew(nil)
		cfg.Obs = o
		var pf *prof.Profiler
		if n.Prof {
			pf = prof.New()
			cfg.Prof = pf
		}
		r, err := sim.Run(cfg, w)
		if err != nil {
			out.Err = err
			return out
		}
		out.Run = r
		out.Observers[run] = o
		out.ExecTimes[run] = r.ExecTime
		if pf != nil {
			out.Profiles = map[string]*prof.Profile{run: pf.Profile()}
		}
	case ModeAnalyze:
		p, store, err := app.Load()
		if err != nil {
			out.Err = err
			return out
		}
		res, err := layout.Optimize(p, m, cm, &layout.Options{
			Threads: opt.Threads,
			Approx:  approx.NewProfiler(store),
		})
		if err != nil {
			out.Err = err
			return out
		}
		out.Analysis = res
	default:
		out.Err = fmt.Errorf("runner: unknown mode %q", n.Mode)
	}
	return out
}

// Execute runs the job in the calling goroutine — the single-job entry
// point (replay with options, the profile-smoke gate) behind the same
// panic-capturing path the sweep workers use.
func (s JobSpec) Execute() *JobOutcome { return s.execute() }

// Replay re-executes a single job from its canonical ID. Because the job's
// jitter seed and registry are derived from the ID alone, the outcome is
// bit-identical to the same job's outcome inside any sweep, parallel or
// not. The returned outcome's Err is also returned for convenience.
func Replay(id string) (*JobOutcome, error) {
	spec, err := ParseJobID(id)
	if err != nil {
		return nil, err
	}
	out := spec.execute()
	return out, out.Err
}
