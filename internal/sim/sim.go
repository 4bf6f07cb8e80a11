// Package sim is the manycore simulator: cores replay per-thread memory
// traces through L1s, private or shared-SNUCA L2s, the mesh NoC, and
// FR-FCFS memory controllers, following the access flows of Figure 2. It
// collects every statistic the paper's evaluation reports: execution time,
// the network latency of on-chip and off-chip accesses, off-chip memory
// (queue) latency, link-traversal histograms (Figure 15), per-node per-MC
// access maps (Figure 13), and bank-queue occupancy (Figure 18). It also
// implements the "optimal scheme" of Section 2 — every off-chip request
// served by the nearest controller with no bank contention — used to bound
// the achievable savings (Figure 4).
package sim

import (
	"fmt"

	"offchip/internal/cache"
	"offchip/internal/check"
	"offchip/internal/dram"
	"offchip/internal/engine"
	"offchip/internal/layout"
	"offchip/internal/mem"
	"offchip/internal/mesh"
	"offchip/internal/noc"
	"offchip/internal/obs"
	"offchip/internal/prof"
)

// PolicyKind selects the page allocation policy under page interleaving.
type PolicyKind int

const (
	// PolicyInterleaved is the default: pages round-robin across MCs.
	PolicyInterleaved PolicyKind = iota
	// PolicyOSAssisted honors the layout pass's per-page desired MC
	// (Section 5.3).
	PolicyOSAssisted
	// PolicyFirstTouch allocates from the MC of the first-touching node's
	// cluster (Section 6.3).
	PolicyFirstTouch
	// PolicyFirstTouchNearest allocates from the controller *nearest* the
	// first-touching core's mesh node — the FCFS placement of the dynamic
	// rival family (the baseline the hot-page migration engine refines).
	PolicyFirstTouchNearest
)

// Config assembles the simulated machine.
type Config struct {
	Machine layout.Machine
	Mapping *layout.ClusterMapping // supplies the MC placement and clusters

	NoC  noc.Config
	DRAM dram.Config

	L1Bytes int64
	L1Ways  int
	L2Bytes int64 // per node
	L2Ways  int

	L1Latency  int64
	L2Latency  int64
	DirLatency int64 // directory lookup at the MC (private L2)

	// MLPWindow is the number of outstanding misses a core sustains.
	MLPWindow int
	// ComputeGap is the minimum cycles between successive issues of one
	// stream (non-memory work between accesses; the paper's two-issue
	// SPARC cores retire several instructions per data reference).
	ComputeGap int64
	// StartStagger delays core c's first issue by c·StartStagger cycles,
	// modeling the thread start-up skew of a real runtime; without it the
	// synthetic lockstep of identical kernels produces artificial burst
	// congestion no real system exhibits.
	StartStagger int64
	// GapJitter adds a deterministic per-access pseudo-random 0..GapJitter-1
	// cycles to ComputeGap (hashed from core and access index), modeling
	// per-iteration compute variation; identical synthetic kernels would
	// otherwise stay in lockstep and alias their miss bursts.
	GapJitter int64
	// Seed decorrelates the jitter stream between runs: it is mixed into
	// the per-access jitter hash, so two runs of the same workload with
	// different seeds sample different (but individually deterministic)
	// compute-variation sequences. Zero keeps the historical stream — every
	// recorded figure uses seed 0. The parallel experiment runner derives
	// each job's seed from a stable hash of its job ID, which is what makes
	// single-job replay bit-exact.
	Seed uint64

	// Policy selects the page allocation policy (page interleaving only).
	Policy PolicyKind

	// Migrate attaches the online hot-page migration engine (page
	// interleaving only; nil disables it and the migration code path is
	// provably inert — bit-identical results and registries). The engine
	// watches per-page access distributions over Migrate.WindowCycles
	// windows and re-homes pages whose dominant accessor crosses
	// Migrate.HotThreshold, paying the modeled cost: page-copy flits
	// through the NoC plus TLB-shootdown stalls on the sharers.
	Migrate *mem.MigrationSpec

	// OptimalOffchip turns on the Section 2 optimal scheme.
	OptimalOffchip bool

	// Obs supplies the observability layer (metrics registry + tracer) every
	// substrate publishes through. Nil gets the run a private registry, so
	// the Figure 13/15/18 statistics are always registry-backed.
	Obs *obs.Observer

	// OnProgress, when set, is called from the simulation loop every
	// ProgressEvery processed events (default 1<<16) with live run status.
	OnProgress    func(Progress)
	ProgressEvery int64

	// Check attaches the cross-layer invariant checker: Run binds it to this
	// machine, hooks it into the engine, the NoC, and the controllers, feeds
	// it every stage of every access, and finishes it with the run's
	// conservation totals. Nil (the default) disables every probe at the
	// cost of one nil check per site, like the tracer.
	Check *check.Checker

	// Prof attaches the latency-attribution profiler: Run binds it to this
	// machine and feeds it the same per-access stage stream the checker
	// sees, plus per-transit hop counts and the controllers' queue/service
	// splits, so every access's end-to-end latency decomposes into
	// exclusive per-stage components. Nil (the default) disables every
	// hook at the cost of one nil check per site.
	Prof *prof.Profiler
}

// Progress is a live status sample of a running simulation.
type Progress struct {
	Cycles      int64 // simulated cycles so far
	Events      int64 // engine events processed
	Outstanding int   // memory accesses currently in flight
}

// DefaultConfig returns the paper's Table 1 machine around the given
// layout machine and mapping.
func DefaultConfig(m layout.Machine, cm *layout.ClusterMapping) Config {
	return Config{
		Machine:      m,
		Mapping:      cm,
		NoC:          noc.DefaultConfig(m.MeshX, m.MeshY),
		DRAM:         dram.DefaultConfig(),
		L1Bytes:      16 << 10,
		L1Ways:       2,
		L2Bytes:      256 << 10,
		L2Ways:       16,
		L1Latency:    2,
		L2Latency:    10,
		DirLatency:   4,
		MLPWindow:    2,
		ComputeGap:   4,
		GapJitter:    8,
		StartStagger: 17,
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if c.Mapping == nil {
		return fmt.Errorf("sim: nil cluster mapping")
	}
	if err := c.Mapping.Validate(); err != nil {
		return err
	}
	if c.Mapping.NumMCs() != c.Machine.NumMCs {
		return fmt.Errorf("sim: mapping has %d MCs, machine %d", c.Mapping.NumMCs(), c.Machine.NumMCs)
	}
	if c.Machine.Cores() > cache.MaxDirectoryCores {
		return fmt.Errorf("sim: %d cores exceed directory capacity %d", c.Machine.Cores(), cache.MaxDirectoryCores)
	}
	if c.MLPWindow <= 0 {
		return fmt.Errorf("sim: MLP window %d", c.MLPWindow)
	}
	if c.Migrate != nil {
		if err := c.Migrate.Validate(); err != nil {
			return err
		}
		if c.Machine.Interleave != layout.PageInterleave {
			return fmt.Errorf("sim: page migration requires page interleaving (the MC-select bits of a line-interleaved address sit inside the page offset)")
		}
		if c.OptimalOffchip {
			return fmt.Errorf("sim: page migration is meaningless under the optimal scheme (every request already goes to the nearest controller)")
		}
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	return nil
}

// Access is one memory reference of a trace. DesiredMC carries the layout
// pass's controller preference for OS-assisted page allocation (-1: none).
type Access struct {
	VAddr     int64
	DesiredMC int8
}

// Stream is the access sequence of one software thread, bound to a core.
// Phases optionally records the start index of each program phase (loop
// nest); under page interleaving, page allocation honors phase order across
// streams — the implicit barrier between OpenMP parallel regions — so a
// master-thread initialization phase really does perform the first touches.
type Stream struct {
	Core     int
	AppID    int
	Accesses []Access
	Phases   []int
}

// Workload is a set of streams, possibly from several applications
// (multiprogrammed mixes put one stream per application on each core).
type Workload struct {
	Name    string
	Streams []Stream
	// Sequential makes each core execute its streams one after another, in
	// declaration order, instead of round-robin time-sharing. Phase-changing
	// multiprogrammed mixes (trace.ComposeMix) set it: their per-phase
	// streams are ordered phase-major, so sequential execution realizes the
	// phases as consecutive epochs — which is what moves the hot set
	// mid-run. Single-stream cores behave identically either way.
	Sequential bool
}

// TotalAccesses returns the workload's access count.
func (w *Workload) TotalAccesses() int64 {
	var n int64
	for _, s := range w.Streams {
		n += int64(len(s.Accesses))
	}
	return n
}

// Result carries every statistic of a run.
type Result struct {
	ExecTime    int64
	AppExecTime map[int]int64

	// Access outcome counts.
	Total        int64
	Completed    int64 // accesses fully retired — conservation: == Total at drain
	L1Hits       int64
	L2LocalHits  int64 // private: local L2 hit; shared: home-bank hit
	OnChipRemote int64 // private: L2-to-L2 transfer
	OffChip      int64

	// Events is the number of engine events the run processed (the
	// denominator of the ns-per-simulated-event benchmark figure).
	Events int64

	// Network statistics by class (from the NoC).
	NetMsgs    [2]int64
	NetHops    [2]int64
	NetLatency [2]int64
	HopCDF     [2][]float64

	// Off-chip memory statistics (from the controllers).
	MemLatency   int64 // Σ queue+service
	MemQueue     int64 // Σ queue wait
	MemServed    int64
	MemSubmitted int64 // requests accepted by controllers — conservation: == MemServed at drain (0 under OptimalOffchip, which bypasses the controllers)
	RowHits      int64
	QueueOcc     []float64 // per-MC time-averaged queue length
	AvgQueueOcc  float64

	// AccessMap[node][mc] counts off-chip requests sent from each node to
	// each controller (Figure 13).
	AccessMap [][]int64

	PageSpills int64

	// Online page migration (zero unless Config.Migrate is set and fires).
	Migrations     int64 // committed page remaps
	MigCopyMsgs    int64 // page-copy messages injected through the NoC
	MigStallCycles int64 // TLB-shootdown cycles charged to sharer cores
}

// OffChipShare returns the fraction of accesses served off-chip (Figure 3).
func (r *Result) OffChipShare() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.OffChip) / float64(r.Total)
}

// AvgNetLatency returns the mean network latency for the class.
func (r *Result) AvgNetLatency(class noc.Class) float64 {
	if r.NetMsgs[class] == 0 {
		return 0
	}
	return float64(r.NetLatency[class]) / float64(r.NetMsgs[class])
}

// AvgMemLatency returns the mean off-chip memory latency (queue+service).
func (r *Result) AvgMemLatency() float64 {
	if r.MemServed == 0 {
		return 0
	}
	return float64(r.MemLatency) / float64(r.MemServed)
}

type coreState struct {
	streams     []*streamState
	nextStream  int // round-robin among the core's streams
	outstanding int
	nextFree    int64 // earliest next issue (compute gap pacing)
	issued      int64 // accesses issued so far (jitter hash input)
}

type streamState struct {
	stream *Stream
	idx    int
	done   bool
}

type machine struct {
	cfg    Config
	memCfg mem.Config
	sim    *engine.Sim
	obs    *obs.Observer
	net    *noc.Network
	mcs    []*dram.Controller
	l1s    []*cache.Cache
	l2s    []*cache.Cache
	dir    *cache.Directory
	spaces map[int]*mem.AddressSpace
	cores  []*coreState
	res    *Result
	ck     *check.Checker // nil when checking is off
	pf     *prof.Profiler // nil when profiling is off
	mig    *migState      // nil when migration is off
	seq    bool           // Workload.Sequential: no per-core round-robin

	// Registry-backed statistics: the Figure 13 access map plus the access
	// outcome counters; coreComp holds precomputed trace component names.
	accessMap [][]*obs.Counter
	totalC    *obs.Counter
	l2LocalC  *obs.Counter
	remoteC   *obs.Counter
	offChipC  *obs.Counter
	coreComp  []string
	seedMix   uint64 // Seed pre-mixed for the jitter hash (0 when Seed is 0)

	freeEvents *accessEvent // recycled access events

	running int // streams not yet finished
}

// accessEvent stages: which step of the Figure 2 flow the event represents
// when it fires. One pooled accessEvent walks an access through its whole
// lifetime, rescheduling itself stage by stage, so the per-access hot path
// performs zero heap allocations.
const (
	stStart          = iota // core start-stagger kick-off
	stProcess               // issue: run the access through L1 and the Figure 2 flow
	stComplete              // retire at the current time
	stPrivOptFinish         // private optimal scheme: memory done, send data back
	stPrivSubmit            // private: request arrives at the MC directory, submit to DRAM
	stSharedHomeHit         // shared: home-bank hit, send data back to the L1
	stSharedBank            // shared: miss reaches the home bank, forward to the MC
	stSharedOptServe        // shared optimal scheme: memory done, fill the home bank
	stSharedSubmit          // shared: request arrives at the MC, submit to DRAM
	stSharedFill            // shared: fill arrives at the home bank, send to the L1
)

// accessEvent is one in-flight memory access. It implements both
// engine.Handler (its own continuation at each stage) and dram.Completion
// (the controller calls MemDone directly on it), and is recycled through the
// machine's free-list at retirement.
type accessEvent struct {
	m    *machine
	next *accessEvent // machine free-list

	stage int8
	last  bool
	core  int
	app   int
	mcID  int
	acc   Access
	t     int64 // stage-specific captured time (e.g. the optimal scheme's finish)
	local int64 // controller-local address
	ckID  int64 // invariant-checker access ID (0 when checking is off)
	pfID  int64 // profiler access ID (0 when profiling is off)

	coreNode mesh.Node
	mcNode   mesh.Node
	homeNode mesh.Node
}

// allocEvent hands out a pooled access event bound to the machine.
func (m *machine) allocEvent() *accessEvent {
	e := m.freeEvents
	if e == nil {
		return &accessEvent{m: m}
	}
	m.freeEvents = e.next
	e.next = nil
	return e
}

// freeEvent recycles a retired access event.
func (m *machine) freeEvent(e *accessEvent) {
	e.next = m.freeEvents
	m.freeEvents = e
}

// Handle advances the access one stage. Times mirror the closure-based
// implementation exactly: stages that previously captured a time use e.t,
// stages that previously read sim.Now() use now — the event schedule is
// 1:1 with the old code, so dispatch order (and every statistic) is
// bit-for-bit identical.
func (e *accessEvent) Handle(now int64) {
	m := e.m
	switch e.stage {
	case stStart:
		core := e.core
		m.freeEvent(e)
		m.tryIssue(core)
	case stProcess:
		m.process(e)
	case stComplete:
		core, app, last := e.core, e.app, e.last
		if ck := m.ck; ck != nil {
			ck.EndAccess(e.ckID, now)
		}
		if pf := m.pf; pf != nil {
			pf.End(e.pfID, now)
		}
		m.freeEvent(e)
		m.complete(core, app, last)
	case stPrivOptFinish:
		tBack, hops := m.net.Transit(e.t, e.mcNode, e.coreNode, noc.OffChip)
		if ck := m.ck; ck != nil {
			ck.Stage(e.ckID, check.StageNoCResp, tBack)
		}
		if pf := m.pf; pf != nil {
			pf.TransitAt(e.pfID, prof.TransitResp, e.t, tBack, hops)
		}
		e.stage = stComplete
		m.sim.Schedule(tBack, e)
	case stPrivSubmit:
		if ck := m.ck; ck != nil {
			ck.Stage(e.ckID, check.StageDRAMSub, now)
		}
		m.mcs[e.mcID].SubmitTo(e.local, e)
	case stSharedHomeHit:
		// Path 5: home bank → L1.
		tData, hops := m.net.Transit(now, e.homeNode, e.coreNode, noc.OnChip)
		if ck := m.ck; ck != nil {
			ck.Stage(e.ckID, check.StageNoCResp, tData)
		}
		if pf := m.pf; pf != nil {
			pf.TransitAt(e.pfID, prof.TransitResp, now, tData, hops)
		}
		e.stage = stComplete
		m.sim.Schedule(tData, e)
	case stSharedBank:
		// Paths 2–4, issued by the home bank.
		tReq, hops := m.net.Transit(now, e.homeNode, e.mcNode, noc.OffChip)
		if ck := m.ck; ck != nil {
			ck.Stage(e.ckID, check.StageNoCReq, tReq)
		}
		if pf := m.pf; pf != nil {
			pf.TransitAt(e.pfID, prof.TransitReq, now, tReq, hops)
		}
		if m.cfg.OptimalOffchip {
			finish := tReq + m.cfg.DRAM.TRowHit
			m.res.MemLatency += m.cfg.DRAM.TRowHit
			m.res.MemServed++
			if ck := m.ck; ck != nil {
				ck.Stage(e.ckID, check.StageDRAMDone, finish)
			}
			if pf := m.pf; pf != nil {
				pf.DRAMOptimal(e.pfID, finish)
			}
			e.stage, e.t = stSharedOptServe, finish
			m.sim.Schedule(finish, e)
			return
		}
		e.stage = stSharedSubmit
		m.sim.Schedule(tReq, e)
	case stSharedSubmit:
		if ck := m.ck; ck != nil {
			ck.Stage(e.ckID, check.StageDRAMSub, now)
		}
		m.mcs[e.mcID].SubmitTo(e.local, e)
	case stSharedOptServe:
		tFill, hops := m.net.Transit(e.t, e.mcNode, e.homeNode, noc.OffChip)
		if ck := m.ck; ck != nil {
			ck.Stage(e.ckID, check.StageNoCResp, tFill)
		}
		if pf := m.pf; pf != nil {
			pf.TransitAt(e.pfID, prof.TransitResp, e.t, tFill, hops)
		}
		e.stage = stSharedFill
		m.sim.Schedule(tFill, e)
	case stSharedFill:
		// Path 5: home bank → L1.
		tData, hops := m.net.Transit(now, e.homeNode, e.coreNode, noc.OnChip)
		if ck := m.ck; ck != nil {
			ck.Stage(e.ckID, check.StageNoCResp, tData)
		}
		if pf := m.pf; pf != nil {
			pf.TransitAt(e.pfID, prof.TransitResp, now, tData, hops)
		}
		e.stage = stComplete
		m.sim.Schedule(tData, e)
	default:
		panic("sim: accessEvent in unknown stage")
	}
}

// MemDone receives the DRAM completion (dram.Completion): route the data
// back toward the requester (private) or the home bank (shared). The stage
// still holds the submit stage that handed the event to the controller.
func (e *accessEvent) MemDone(finish int64) {
	m := e.m
	if ck := m.ck; ck != nil {
		ck.Stage(e.ckID, check.StageDRAMDone, finish)
	}
	if pf := m.pf; pf != nil {
		pf.DRAMDone(e.pfID, e.mcID, finish)
	}
	switch e.stage {
	case stPrivSubmit:
		tBack, hops := m.net.Transit(finish, e.mcNode, e.coreNode, noc.OffChip)
		if ck := m.ck; ck != nil {
			ck.Stage(e.ckID, check.StageNoCResp, tBack)
		}
		if pf := m.pf; pf != nil {
			pf.TransitAt(e.pfID, prof.TransitResp, finish, tBack, hops)
		}
		e.stage = stComplete
		m.sim.Schedule(tBack, e)
	case stSharedSubmit:
		tFill, hops := m.net.Transit(finish, e.mcNode, e.homeNode, noc.OffChip)
		if ck := m.ck; ck != nil {
			ck.Stage(e.ckID, check.StageNoCResp, tFill)
		}
		if pf := m.pf; pf != nil {
			pf.TransitAt(e.pfID, prof.TransitResp, finish, tFill, hops)
		}
		e.stage = stSharedFill
		m.sim.Schedule(tFill, e)
	default:
		panic("sim: MemDone in unknown stage")
	}
}

// totalOutstanding sums in-flight accesses across cores (live reporting).
func (m *machine) totalOutstanding() int {
	var n int
	for _, cs := range m.cores {
		n += cs.outstanding
	}
	return n
}

// Run simulates the workload on the configured machine.
func Run(cfg Config, w *Workload) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cores := cfg.Machine.Cores()
	for _, s := range w.Streams {
		if s.Core < 0 || s.Core >= cores {
			return nil, fmt.Errorf("sim: stream bound to core %d of %d", s.Core, cores)
		}
	}

	o := obs.OrNew(cfg.Obs)
	memCfg := mem.Config{
		PageBytes:  cfg.Machine.PageBytes,
		LineBytes:  cfg.Machine.LineUnit(),
		NumMCs:     cfg.Machine.NumMCs,
		Interleave: cfg.Machine.Interleave,
	}
	nocCfg := cfg.NoC
	nocCfg.Obs = o
	if cfg.Check != nil {
		p := check.Params{
			MeshX: cfg.Machine.MeshX, MeshY: cfg.Machine.MeshY,
			NoC: nocCfg, DRAM: cfg.DRAM, Mem: memCfg,
			Optimal: cfg.OptimalOffchip,
		}
		if cfg.Obs == nil {
			// Only a private registry is guaranteed to describe this run
			// alone, which the end-of-run registry cross-check requires.
			p.Obs = o
		}
		cfg.Check.Bind(p)
		nocCfg.Probe = cfg.Check
	}
	if cfg.Prof != nil {
		cfg.Prof.Bind(prof.Params{
			Cores: cores, MCs: cfg.Machine.NumMCs, NoC: nocCfg, Obs: o,
		})
	}
	m := &machine{
		cfg:    cfg,
		memCfg: memCfg,
		sim:    &engine.Sim{},
		obs:    o,
		net:    noc.New(nocCfg),
		dir:    cache.NewDirectory(),
		spaces: map[int]*mem.AddressSpace{},
		ck:     cfg.Check,
		pf:     cfg.Prof,
		res: &Result{
			AppExecTime: map[int]int64{},
			AccessMap:   make([][]int64, cores),
		},
	}
	if cfg.Check != nil {
		m.sim.OnDispatch = cfg.Check.EngineTick
	}
	if cfg.Seed != 0 {
		// SplitMix64 finalizer: spread the seed bits before XOR-ing into
		// the per-access jitter hash.
		z := cfg.Seed + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		m.seedMix = z ^ (z >> 31)
	}
	m.totalC = o.Reg.Counter("sim", "accesses")
	m.l2LocalC = o.Reg.Counter("sim", "l2_local_hits")
	m.remoteC = o.Reg.Counter("sim", "onchip_remote")
	m.offChipC = o.Reg.Counter("sim", "offchip")
	m.accessMap = make([][]*obs.Counter, cores)
	for i := range m.res.AccessMap {
		m.res.AccessMap[i] = make([]int64, cfg.Machine.NumMCs)
		m.accessMap[i] = make([]*obs.Counter, cfg.Machine.NumMCs)
		for mc := range m.accessMap[i] {
			m.accessMap[i][mc] = o.Reg.Counter("sim", "offchip_requests",
				fmt.Sprintf("node=%d", i), fmt.Sprintf("mc=%d", mc))
		}
	}
	for i := 0; i < cfg.Machine.NumMCs; i++ {
		mc := dram.New(i, cfg.DRAM, m.sim, o)
		if pr := dramProbeFor(cfg.Check, cfg.Prof); pr != nil {
			mc.Probe = pr
		}
		m.mcs = append(m.mcs, mc)
	}
	if cfg.Migrate != nil {
		m.mig = newMigState(m, *cfg.Migrate)
	}
	m.seq = w.Sequential
	for i := 0; i < cores; i++ {
		l1 := cache.New(cfg.L1Bytes, cfg.Machine.LineBytes, cfg.L1Ways)
		l2 := cache.New(cfg.L2Bytes, cfg.Machine.LineBytes, cfg.L2Ways)
		l1.Instrument(o, fmt.Sprintf("l1.%d", i), m.sim)
		l2.Instrument(o, fmt.Sprintf("l2.%d", i), m.sim)
		m.l1s = append(m.l1s, l1)
		m.l2s = append(m.l2s, l2)
		m.cores = append(m.cores, &coreState{})
		m.coreComp = append(m.coreComp, fmt.Sprintf("core%d", i))
	}
	if cfg.OnProgress != nil {
		every := cfg.ProgressEvery
		if every <= 0 {
			every = 1 << 16
		}
		m.sim.ProgressEvery = every
		m.sim.OnProgress = func(now, processed int64) {
			cfg.OnProgress(Progress{Cycles: now, Events: processed, Outstanding: m.totalOutstanding()})
		}
	}

	appBase := int64(0)
	for _, s := range w.Streams {
		if _, ok := m.spaces[s.AppID]; !ok {
			m.spaces[s.AppID] = mem.NewAddressSpace(memCfg, appBase, m.policy())
			appBase += 1 << 34
		}
	}

	for i := range w.Streams {
		s := &w.Streams[i]
		if len(s.Accesses) == 0 {
			continue
		}
		ss := &streamState{stream: s}
		m.cores[s.Core].streams = append(m.cores[s.Core].streams, ss)
		m.running++
	}

	if cfg.Machine.Interleave == layout.PageInterleave {
		m.preTouch(w)
	}
	for core := range m.cores {
		e := m.allocEvent()
		e.stage, e.core = stStart, core
		m.sim.Schedule(int64(core)*cfg.StartStagger, e)
	}
	m.sim.Run()

	m.finishStats(w)
	if cfg.Check != nil {
		cfg.Check.FinishRun(m.res.Totals(w, &cfg))
	}
	if cfg.Prof != nil {
		cfg.Prof.FinishRun()
	}
	return m.res, nil
}

// dramProbeFor selects the controller probe for the attached observers:
// the checker, the profiler, or a fan-out to both. Returning a concrete
// nil through the interface would read as non-nil at the call site, so
// absent observers yield an explicit nil.
func dramProbeFor(ck *check.Checker, pf *prof.Profiler) dram.Probe {
	switch {
	case ck != nil && pf != nil:
		return dramProbes{a: ck, b: pf}
	case ck != nil:
		return ck
	case pf != nil:
		return pf
	}
	return nil
}

// dramProbes duplicates the controller probe stream to two observers.
type dramProbes struct{ a, b dram.Probe }

func (d dramProbes) Enqueue(mc, bank int, at int64) {
	d.a.Enqueue(mc, bank, at)
	d.b.Enqueue(mc, bank, at)
}

func (d dramProbes) Serve(mc, bank int, arrive, start, finish int64, bypassed int) {
	d.a.Serve(mc, bank, arrive, start, finish, bypassed)
	d.b.Serve(mc, bank, arrive, start, finish, bypassed)
}

// Totals summarizes a drained run for check.VerifyTotals — the generalized
// conservation identities shared by the conservation tests, the validation
// battery, and the CLI's -check mode.
func (r *Result) Totals(w *Workload, cfg *Config) check.RunTotals {
	return check.RunTotals{
		TraceAccesses: w.TotalAccesses(),
		Injected:      r.Total,
		Completed:     r.Completed,
		L1Hits:        r.L1Hits,
		L2LocalHits:   r.L2LocalHits,
		OnChipRemote:  r.OnChipRemote,
		OffChip:       r.OffChip,
		NetMsgs:       r.NetMsgs,
		HopCDF:        r.HopCDF,
		MaxHops:       cfg.Machine.MeshX + cfg.Machine.MeshY - 2,
		MemSubmitted:  r.MemSubmitted,
		MemServed:     r.MemServed,
		Events:        r.Events,
		Optimal:       cfg.OptimalOffchip,
	}
}

// preTouch walks the workload phase by phase (streams in declaration order
// within a phase) and performs the virtual-to-physical allocations in that
// order: the timing simulation has no inter-core barriers, but page
// allocation must respect the program's phase structure (a serial
// initialization phase owns the first touch of every page it visits).
func (m *machine) preTouch(w *Workload) {
	maxPhases := 1
	for i := range w.Streams {
		if n := len(w.Streams[i].Phases); n > maxPhases {
			maxPhases = n
		}
	}
	for ph := 0; ph < maxPhases; ph++ {
		for i := range w.Streams {
			st := &w.Streams[i]
			lo, hi := phaseRange(st, ph)
			for _, acc := range st.Accesses[lo:hi] {
				m.spaces[st.AppID].Translate(acc.VAddr, st.Core, int(acc.DesiredMC))
			}
		}
	}
}

// phaseRange returns the [lo, hi) access range of phase ph in the stream.
// Streams without phase markers are one phase.
func phaseRange(st *Stream, ph int) (int, int) {
	if len(st.Phases) == 0 {
		if ph == 0 {
			return 0, len(st.Accesses)
		}
		return 0, 0
	}
	if ph >= len(st.Phases) {
		return 0, 0
	}
	lo := st.Phases[ph]
	hi := len(st.Accesses)
	if ph+1 < len(st.Phases) {
		hi = st.Phases[ph+1]
	}
	return lo, hi
}

func (m *machine) policy() mem.Policy {
	switch m.cfg.Policy {
	case PolicyOSAssisted:
		return mem.NewOSAssistedPolicy(m.cfg.Machine.NumMCs)
	case PolicyFirstTouch:
		return &mem.FirstTouchPolicy{MCOfCore: m.cfg.Mapping.DesiredMCOf}
	case PolicyFirstTouchNearest:
		return &mem.FirstTouchNearestPolicy{NearestMC: m.nearestMCOf}
	default:
		return mem.NewInterleavedPolicy(m.cfg.Machine.NumMCs)
	}
}

// tryIssue launches accesses for the core until its MLP window fills.
func (m *machine) tryIssue(core int) {
	cs := m.cores[core]
	for cs.outstanding < m.cfg.MLPWindow {
		ss := m.nextReady(cs)
		if ss == nil {
			return
		}
		acc := ss.stream.Accesses[ss.idx]
		ss.idx++
		app := ss.stream.AppID
		if ss.idx == len(ss.stream.Accesses) {
			ss.done = true
		}
		cs.outstanding++
		now := m.sim.Now()
		t := now
		if cs.nextFree > t {
			t = cs.nextFree
		}
		gap := m.cfg.ComputeGap
		if m.cfg.GapJitter > 0 {
			// Cheap deterministic hash of (core, issue count, seed). With
			// Seed 0 the mix term vanishes and the historical jitter stream
			// is reproduced exactly.
			h := uint64(core)*0x9e3779b97f4a7c15 + uint64(cs.issued)*0xbf58476d1ce4e5b9
			h ^= m.seedMix
			h ^= h >> 31
			gap += int64(h % uint64(m.cfg.GapJitter))
		}
		cs.issued++
		cs.nextFree = t + gap
		e := m.allocEvent()
		e.stage, e.core, e.app, e.acc, e.last = stProcess, core, app, acc, ss.done
		m.sim.Schedule(t, e)
	}
	// Window full with work remaining: the core stalls until a miss returns.
	// (Do not use nextReady here — it advances the round-robin pointer, and
	// tracing must never perturb the simulation.)
	if tr := m.obs.Tracer; tr.Enabled() {
		for _, ss := range cs.streams {
			if !ss.done {
				tr.Emit(m.sim.Now(), "core", "stall", m.coreComp[core], 0)
				break
			}
		}
	}
}

// nextReady picks the core's next stream with work: round-robin by default
// (streams time-share the core), or the first unfinished stream in
// declaration order under Workload.Sequential (streams run as consecutive
// epochs — the phase structure of a composed mix).
func (m *machine) nextReady(cs *coreState) *streamState {
	if m.seq {
		for _, ss := range cs.streams {
			if !ss.done {
				return ss
			}
		}
		return nil
	}
	n := len(cs.streams)
	for i := 0; i < n; i++ {
		ss := cs.streams[(cs.nextStream+i)%n]
		if !ss.done {
			cs.nextStream = (cs.nextStream + i + 1) % n
			return ss
		}
	}
	return nil
}

// complete finishes one access at the current time.
func (m *machine) complete(core, app int, last bool) {
	cs := m.cores[core]
	cs.outstanding--
	m.res.Completed++
	if tr := m.obs.Tracer; tr.Enabled() {
		tr.Emit(m.sim.Now(), "core", "retire", m.coreComp[core], 0)
	}
	if t := m.sim.Now(); t > m.res.AppExecTime[app] {
		m.res.AppExecTime[app] = t
	}
	if t := m.sim.Now(); t > m.res.ExecTime {
		m.res.ExecTime = t
	}
	if last {
		m.running--
	}
	m.tryIssue(core)
}

// process runs one access through the Figure 2 flow, rescheduling the
// pooled event for its next stage.
func (m *machine) process(e *accessEvent) {
	m.res.Total++
	m.totalC.Inc()
	if ck := m.ck; ck != nil {
		e.ckID = ck.StartAccess(m.sim.Now())
	}
	if pf := m.pf; pf != nil {
		e.pfID = pf.Start(e.core, m.sim.Now())
	}
	if g := m.mig; g != nil {
		// Every timed reference counts toward the page's access distribution
		// (the engine watches the TLB, not the caches), and crossing a window
		// boundary rolls the window before this access translates.
		g.touch(m.sim.Now(), e.app, e.acc.VAddr/m.memCfg.PageBytes, e.core)
	}
	paddr := m.spaces[e.app].Translate(e.acc.VAddr, e.core, int(e.acc.DesiredMC))

	// L1.
	if hit, _ := m.l1s[e.core].Access(paddr); hit {
		if ck := m.ck; ck != nil {
			ck.Stage(e.ckID, check.StageL1, m.sim.Now()+m.cfg.L1Latency)
		}
		if pf := m.pf; pf != nil {
			pf.StageAt(e.pfID, prof.CompL1, m.sim.Now()+m.cfg.L1Latency)
		}
		e.stage = stComplete
		m.sim.ScheduleAfter(m.cfg.L1Latency, e)
		return
	}
	if m.cfg.Machine.L2 == layout.SharedL2 {
		m.processShared(e, paddr)
		return
	}
	m.processPrivate(e, paddr)
}

// processPrivate follows Figure 2a: local L2, then the directory cached at
// the line's MC, then an L2-to-L2 transfer or an off-chip access.
func (m *machine) processPrivate(e *accessEvent, paddr int64) {
	core, app := e.core, e.app
	t0 := m.sim.Now() + m.cfg.L1Latency
	if ck := m.ck; ck != nil {
		ck.Stage(e.ckID, check.StageL1, t0)
	}
	if pf := m.pf; pf != nil {
		pf.StageAt(e.pfID, prof.CompL1, t0)
	}
	line := m.l2s[core].LineAddr(paddr)
	if hit, evicted := m.l2s[core].Access(paddr); hit {
		m.res.L2LocalHits++
		m.l2LocalC.Inc()
		if ck := m.ck; ck != nil {
			ck.Stage(e.ckID, check.StageL2, t0+m.cfg.L2Latency)
		}
		if pf := m.pf; pf != nil {
			pf.StageAt(e.pfID, prof.CompL2, t0+m.cfg.L2Latency)
		}
		e.stage = stComplete
		m.sim.Schedule(t0+m.cfg.L2Latency, e)
		return
	} else if evicted >= 0 {
		m.dir.Remove(evicted, core)
	}
	m.dir.Add(line, core) // the fill just performed by Access

	t1 := t0 + m.cfg.L2Latency
	if ck := m.ck; ck != nil {
		ck.Stage(e.ckID, check.StageL2, t1)
	}
	if pf := m.pf; pf != nil {
		pf.StageAt(e.pfID, prof.CompL2, t1)
	}
	mcID := m.spaces[app].MCOf(paddr)
	mcNode := m.cfg.Mapping.Placement.NodeOf(mcID)
	coreNode := mesh.CoordOf(core, m.cfg.Machine.MeshX)

	// Peek the directory to classify the request's traffic, then send
	// path 1 (L2 → directory at the MC).
	owner := m.ownerOf(line, core)
	if owner >= 0 {
		// On-chip: directory forwards to the owning L2, which sends the
		// line to the requester.
		m.res.OnChipRemote++
		m.remoteC.Inc()
		tArr, reqHops := m.net.Transit(t1, coreNode, mcNode, noc.OnChip)
		tDir := tArr + m.cfg.DirLatency
		ownerNode := mesh.CoordOf(owner, m.cfg.Machine.MeshX)
		tFwd, fwdHops := m.net.Transit(tDir, mcNode, ownerNode, noc.OnChip)
		tOwn := tFwd + m.cfg.L2Latency
		tData, respHops := m.net.Transit(tOwn, ownerNode, coreNode, noc.OnChip)
		if ck := m.ck; ck != nil {
			ck.Stage(e.ckID, check.StageNoCReq, tArr)
			ck.Stage(e.ckID, check.StageDir, tDir)
			ck.Stage(e.ckID, check.StageNoCResp, tData)
		}
		if pf := m.pf; pf != nil {
			pf.TransitAt(e.pfID, prof.TransitReq, t1, tArr, reqHops)
			pf.StageAt(e.pfID, prof.CompDirLookup, tDir)
			pf.TransitAt(e.pfID, prof.TransitFwd, tDir, tFwd, fwdHops)
			pf.StageAt(e.pfID, prof.CompL2, tOwn)
			pf.TransitAt(e.pfID, prof.TransitResp, tOwn, tData, respHops)
		}
		e.stage = stComplete
		m.sim.Schedule(tData, e)
		return
	}

	// Off-chip (paths 1–3 of Figure 2a).
	m.res.OffChip++
	m.offChipC.Inc()
	e.coreNode = coreNode
	if m.cfg.OptimalOffchip {
		// Section 2 optimal scheme: nearest controller, no bank contention.
		nearest := m.cfg.Mapping.Placement.NearestMC(coreNode)
		nearNode := m.cfg.Mapping.Placement.NodeOf(nearest)
		m.accessMap[core][nearest].Inc()
		tArr, hops := m.net.Transit(t1, coreNode, nearNode, noc.OffChip)
		finish := tArr + m.cfg.DirLatency + m.cfg.DRAM.TRowHit
		m.res.MemLatency += m.cfg.DRAM.TRowHit
		m.res.MemServed++
		if ck := m.ck; ck != nil {
			ck.Stage(e.ckID, check.StageNoCReq, tArr)
			ck.Stage(e.ckID, check.StageDRAMDone, finish)
		}
		if pf := m.pf; pf != nil {
			pf.TransitAt(e.pfID, prof.TransitReq, t1, tArr, hops)
			pf.StageAt(e.pfID, prof.CompDirLookup, tArr+m.cfg.DirLatency)
			pf.DRAMOptimal(e.pfID, finish)
		}
		e.stage, e.t, e.mcNode = stPrivOptFinish, finish, nearNode
		m.sim.Schedule(finish, e)
		return
	}
	m.accessMap[core][mcID].Inc()
	tArr, hops := m.net.Transit(t1, coreNode, mcNode, noc.OffChip)
	tDir := tArr + m.cfg.DirLatency
	e.stage, e.mcID, e.mcNode = stPrivSubmit, mcID, mcNode
	e.local = mem.LocalAddr(paddr, m.memCfg)
	if ck := m.ck; ck != nil {
		ck.Stage(e.ckID, check.StageNoCReq, tArr)
		ck.Stage(e.ckID, check.StageDir, tDir)
		ck.AddrOwner(paddr, mcID, e.local)
	}
	if pf := m.pf; pf != nil {
		pf.TransitAt(e.pfID, prof.TransitReq, t1, tArr, hops)
		pf.StageAt(e.pfID, prof.CompDirLookup, tDir)
	}
	m.sim.Schedule(tDir, e)
}

// ownerOf returns the core (≠ requester) nearest to the requester whose L2
// holds the line, or -1. It delegates to the directory's distance-aware
// Owner; when the checker is attached, it also verifies that the chosen
// core's L2 really holds the line — the directory must never go stale,
// since every eviction removes its sharer bit.
func (m *machine) ownerOf(line int64, requester int) int {
	owner := m.dir.Owner(line, requester, m.cfg.Machine.MeshX)
	if owner >= 0 {
		if ck := m.ck; ck != nil && !m.l2s[owner].Contains(line) {
			ck.Report("directory", "core %d recorded as sharer of line %#x but its L2 does not hold it",
				owner, line)
		}
	}
	return owner
}

// processShared follows Figure 2b: the home L2 bank, then the controller.
// The continuation stages (stSharedBank → stSharedSubmit/stSharedOptServe →
// stSharedFill → stComplete) live on the pooled event.
func (m *machine) processShared(e *accessEvent, paddr int64) {
	core, app := e.core, e.app
	t0 := m.sim.Now() + m.cfg.L1Latency
	cores := m.cfg.Machine.Cores()
	home := mem.HomeBank(paddr, m.cfg.Machine.LineUnit(), cores)
	homeNode := mesh.CoordOf(home, m.cfg.Machine.MeshX)
	coreNode := mesh.CoordOf(core, m.cfg.Machine.MeshX)
	e.coreNode, e.homeNode = coreNode, homeNode

	// Path 1: L1 → home bank.
	tArr, hops := m.net.Transit(t0, coreNode, homeNode, noc.OnChip)
	tBank := tArr + m.cfg.L2Latency
	if ck := m.ck; ck != nil {
		ck.Stage(e.ckID, check.StageL1, t0)
		ck.Stage(e.ckID, check.StageNoCReq, tArr)
		ck.Stage(e.ckID, check.StageL2, tBank)
	}
	if pf := m.pf; pf != nil {
		pf.StageAt(e.pfID, prof.CompL1, t0)
		pf.TransitAt(e.pfID, prof.TransitReq, t0, tArr, hops)
		pf.StageAt(e.pfID, prof.CompL2, tBank)
	}
	if hit, _ := m.l2s[home].Access(paddr); hit {
		m.res.L2LocalHits++
		m.l2LocalC.Inc()
		e.stage = stSharedHomeHit
		m.sim.Schedule(tBank, e)
		return
	}

	// Off-chip (paths 2–4), issued by the home bank.
	m.res.OffChip++
	m.offChipC.Inc()
	mcID := m.spaces[app].MCOf(paddr)
	if m.cfg.OptimalOffchip {
		mcID = m.cfg.Mapping.Placement.NearestMC(homeNode)
	}
	mcNode := m.cfg.Mapping.Placement.NodeOf(mcID)
	m.accessMap[home][mcID].Inc()
	e.stage, e.mcID, e.mcNode = stSharedBank, mcID, mcNode
	e.local = mem.LocalAddr(paddr, m.memCfg)
	if ck := m.ck; ck != nil && !m.cfg.OptimalOffchip {
		// The optimal scheme routes to the nearest MC, not the owner, so
		// the address-map agreement probe only applies to real runs.
		ck.AddrOwner(paddr, mcID, e.local)
	}
	m.sim.Schedule(tBank, e)
}

// finishStats folds substrate statistics into the result.
func (m *machine) finishStats(w *Workload) {
	r := m.res
	// ExecTime was tracked at each completion (idle start-stagger events
	// on streamless cores must not count).
	if r.ExecTime == 0 {
		r.ExecTime = m.sim.Now()
	}
	r.L1Hits = 0
	for _, l1 := range m.l1s {
		r.L1Hits += l1.Hits
	}
	for c := 0; c < 2; c++ {
		r.NetMsgs[c] = m.net.Messages[c]
		r.NetHops[c] = m.net.Hops[c]
		r.NetLatency[c] = m.net.Latency[c]
		r.HopCDF[c] = m.net.HopCDF(noc.Class(c))
	}
	r.Events = m.sim.Processed()
	for _, mc := range m.mcs {
		if !m.cfg.OptimalOffchip {
			r.MemLatency += mc.TotalMemLatency
			r.MemServed += mc.Served
		}
		r.MemSubmitted += mc.Submitted
		r.MemQueue += mc.TotalQueueWait
		r.RowHits += mc.RowHits
		r.QueueOcc = append(r.QueueOcc, mc.QueueOccupancy(r.ExecTime))
	}
	for _, q := range r.QueueOcc {
		r.AvgQueueOcc += q
	}
	if len(r.QueueOcc) > 0 {
		r.AvgQueueOcc /= float64(len(r.QueueOcc))
	}
	// Figure 13: render the per-node per-MC access map from the registry.
	for node := range m.accessMap {
		for mc, c := range m.accessMap[node] {
			r.AccessMap[node][mc] = c.Value()
		}
	}
	for _, sp := range m.spaces {
		r.PageSpills += sp.Spills
	}
}
