// Package dram models a memory controller with per-bank row buffers and
// FR-FCFS (first-ready, first-come-first-served) scheduling [16]: among
// pending requests, row-buffer hits are served before older row-buffer
// misses; ties fall back to arrival order. Timing follows the shape of the
// paper's Table 1 DDR3-1600 part: a row-buffer hit costs one CAS, a closed
// bank adds activation, and a conflict adds precharge.
//
// Controllers publish through the observability registry: request mix
// counters (row hits/misses/conflicts), per-bank served counts for the
// -report hottest-bank table, and the Figure 18 queue occupancy as a
// time-weighted gauge. With a tracer attached, every enqueue and every
// bank service (tagged with its row outcome) becomes a trace event.
package dram

import (
	"fmt"
	"strconv"

	"offchip/internal/engine"
	"offchip/internal/obs"
)

// Config sets the controller parameters.
type Config struct {
	BanksPerMC int
	RowBytes   int64 // row-buffer size (Table 1: 4 KB)

	// Service times in core cycles.
	TRowHit      int64 // open-row access (CAS)
	TRowMiss     int64 // closed bank (RCD + CAS)
	TRowConflict int64 // open different row (RP + RCD + CAS)

	// StarveLimit caps FR-FCFS reordering: once the oldest pending request
	// for a bank has been passed over this many times by younger row-buffer
	// hits, the bank reverts to strict FCFS until it is served. Real
	// schedulers carry such a cap for exactly this reason — an unbounded
	// hit-first policy starves a conflicting stream forever. Zero or
	// negative selects DefaultStarveLimit.
	StarveLimit int
}

// DefaultStarveLimit is the bypass cap used when Config.StarveLimit is
// unset.
const DefaultStarveLimit = 8

// EffectiveStarveLimit returns the bypass cap a controller with this
// configuration enforces (the invariant checker asserts it at every
// service).
func EffectiveStarveLimit(cfg Config) int {
	if cfg.StarveLimit <= 0 {
		return DefaultStarveLimit
	}
	return cfg.StarveLimit
}

// DefaultConfig returns timing in the shape of Micron DDR3-1600 as seen
// from a 2 GHz core: ~20 cycles CAS, ~40 activate+CAS, ~60 with precharge;
// 4 KB rows (Table 1), with 16 banks per controller (Table 1's 4 banks per
// device across four ranks).
func DefaultConfig() Config {
	return Config{
		BanksPerMC:   16,
		RowBytes:     4096,
		TRowHit:      20,
		TRowMiss:     40,
		TRowConflict: 60,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BanksPerMC <= 0 {
		return fmt.Errorf("dram: %d banks", c.BanksPerMC)
	}
	if c.RowBytes <= 0 {
		return fmt.Errorf("dram: row size %d", c.RowBytes)
	}
	if c.TRowHit <= 0 || c.TRowMiss < c.TRowHit || c.TRowConflict < c.TRowMiss {
		return fmt.Errorf("dram: inconsistent timings hit=%d miss=%d conflict=%d",
			c.TRowHit, c.TRowMiss, c.TRowConflict)
	}
	return nil
}

// Completion receives a request's completion time. Callers that care about
// the allocation-free hot path implement it on their pooled per-access
// event object; Submit wraps legacy func callbacks in it.
type Completion interface {
	MemDone(finish int64)
}

// Probe observes controller activity for the invariant checker
// (internal/check implements it); attach via the Controller.Probe field
// before submitting requests.
type Probe interface {
	// Enqueue fires on every accepted request.
	Enqueue(mc, bank int, at int64)
	// Serve fires when a bank starts servicing a request: arrive is the
	// enqueue time, start/finish the service interval, bypassed how many
	// times younger row hits were served ahead of this request.
	Serve(mc, bank int, arrive, start, finish int64, bypassed int)
}

// funcCompletion adapts a legacy callback to Completion. Func values are
// pointer-shaped, so the conversion itself does not allocate.
type funcCompletion func(finish int64)

func (f funcCompletion) MemDone(finish int64) { f(finish) }

// request is one in-flight controller request. Requests are pooled on the
// controller and double as the engine event for their own completion
// (engine.Handler), so steady-state service allocates nothing.
type request struct {
	addr     int64
	arrive   int64
	bank     int
	row      int64
	finish   int64
	bypassed int // times a younger row hit was served ahead of this request
	done     Completion
	c        *Controller
	next     *request // controller free-list
}

// Handle is the bank-service completion event: deliver the finish time to
// the submitter, then let the controller schedule its next picks. The
// request recycles itself first — the completion may immediately submit a
// new request, which is allowed to reuse this node.
func (r *request) Handle(int64) {
	c, done, finish := r.c, r.done, r.finish
	c.freeReq(r)
	done.MemDone(finish)
	c.dispatch()
}

type bank struct {
	openRow int64 // -1 when closed
	freeAt  int64
}

// Controller is one memory controller instance.
type Controller struct {
	ID   int
	cfg  Config
	sim  *engine.Sim
	obs  *obs.Observer
	comp string // trace component name, "mc0"…

	banks    []bank
	pending  []*request
	freeReqs *request // recycled request nodes

	// Probe, when set, observes every enqueue and service — the invariant
	// checker's timing and starvation-bound hook. Nil costs one check per
	// request.
	Probe Probe

	starve int // effective StarveLimit

	// Aggregate stats, mirrored into registry counters.
	Submitted       int64 // requests accepted (conservation: Submitted == Served at drain)
	Served          int64 // requests completed
	TotalMemLatency int64 // Σ (finish − arrive): the "memory latency" of Figure 4
	TotalQueueWait  int64 // Σ (service start − arrive)
	RowHits         int64

	// Plain time-weighted queue-length accumulator. It mirrors the registry
	// gauge so QueueOccupancy survives runs whose observer carries no
	// registry (&obs.Observer{}), which register no metrics at all.
	qInt  int64
	qLast int64
	qCur  int64

	// Registry-backed statistics.
	servedC    *obs.Counter
	rowHitC    *obs.Counter
	rowMissC   *obs.Counter
	rowConflC  *obs.Counter
	queueWaitC *obs.Counter
	memLatC    *obs.Counter
	queueLen   *obs.TimeWeighted // Figure 18's time-averaged queue length
	bankServed []*obs.Counter
}

// New returns a controller bound to the simulation clock, publishing into
// the observer (nil gets a private registry).
func New(id int, cfg Config, sim *engine.Sim, o *obs.Observer) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	o = obs.OrNew(o)
	c := &Controller{
		ID: id, cfg: cfg, sim: sim, obs: o,
		comp:   "mc" + strconv.Itoa(id),
		banks:  make([]bank, cfg.BanksPerMC),
		starve: EffectiveStarveLimit(cfg),
	}
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	mcLabel := "mc=" + strconv.Itoa(id)
	c.servedC = o.Reg.Counter("dram", "served", mcLabel)
	c.rowHitC = o.Reg.Counter("dram", "row_hits", mcLabel)
	c.rowMissC = o.Reg.Counter("dram", "row_misses", mcLabel)
	c.rowConflC = o.Reg.Counter("dram", "row_conflicts", mcLabel)
	c.queueWaitC = o.Reg.Counter("dram", "queue_wait_cycles", mcLabel)
	c.memLatC = o.Reg.Counter("dram", "mem_latency_cycles", mcLabel)
	c.queueLen = o.Reg.TimeWeighted("dram", "queue_len", mcLabel)
	c.bankServed = make([]*obs.Counter, cfg.BanksPerMC)
	for b := range c.bankServed {
		c.bankServed[b] = o.Reg.Counter("dram", "bank_served", mcLabel, "bank="+strconv.Itoa(b))
	}
	return c
}

// bankOf maps a local address to its bank and row using permutation-based
// (XOR-folded) bank interleaving, the standard defense against bank
// conflicts between regularly strided streams.
func (c *Controller) bankOf(addr int64) (int, int64) {
	rowID := addr / c.cfg.RowBytes
	bank := (rowID ^ (rowID >> 4) ^ (rowID >> 9)) % int64(c.cfg.BanksPerMC)
	return int(bank), rowID / int64(c.cfg.BanksPerMC)
}

// allocReq hands out a pooled request node bound to this controller.
func (c *Controller) allocReq() *request {
	r := c.freeReqs
	if r == nil {
		return &request{c: c}
	}
	c.freeReqs = r.next
	r.next = nil
	return r
}

// freeReq recycles a completed request, dropping the Completion reference so
// pooled caller events are not retained.
func (c *Controller) freeReq(r *request) {
	r.done = nil
	r.next = c.freeReqs
	c.freeReqs = r
}

// SubmitTo enqueues a request at the current simulation time; done.MemDone
// fires at the completion time. This is the allocation-free path: the
// request node comes from the controller's pool and doubles as the
// completion event.
func (c *Controller) SubmitTo(addr int64, done Completion) {
	b, row := c.bankOf(addr)
	now := c.sim.Now()
	r := c.allocReq()
	r.addr, r.arrive, r.bank, r.row, r.done = addr, now, b, row, done
	r.bypassed = 0
	c.Submitted++
	c.pending = append(c.pending, r)
	c.setQueueLen(now)
	if c.Probe != nil {
		c.Probe.Enqueue(c.ID, b, now)
	}
	if tr := c.obs.Tracer; tr.Enabled() {
		tr.Emit(now, "dram", "enqueue", c.comp, 0,
			"bank="+strconv.Itoa(b), "addr="+strconv.FormatInt(addr, 16))
	}
	c.dispatch()
}

// Submit enqueues a request with a func callback — the compatibility shim
// over SubmitTo for call sites that have not migrated to pooled Completions;
// the closure costs one allocation per call.
func (c *Controller) Submit(addr int64, onDone func(finish int64)) {
	c.SubmitTo(addr, funcCompletion(onDone))
}

// dispatch serves every idle bank its FR-FCFS pick.
func (c *Controller) dispatch() {
	now := c.sim.Now()
	for bi := range c.banks {
		if c.banks[bi].freeAt > now {
			continue
		}
		idx := c.pick(bi)
		if idx < 0 {
			continue
		}
		r := c.pending[idx]
		c.pending = append(c.pending[:idx], c.pending[idx+1:]...)
		c.setQueueLen(now)

		var dur int64
		var outcome string
		switch {
		case c.banks[bi].openRow == r.row:
			dur = c.cfg.TRowHit
			outcome = "row-hit"
			c.RowHits++
			c.rowHitC.Inc()
		case c.banks[bi].openRow == -1:
			dur = c.cfg.TRowMiss
			outcome = "row-miss"
			c.rowMissC.Inc()
		default:
			dur = c.cfg.TRowConflict
			outcome = "row-conflict"
			c.rowConflC.Inc()
		}
		c.banks[bi].openRow = r.row
		c.banks[bi].freeAt = now + dur

		finish := now + dur
		c.Served++
		c.TotalQueueWait += now - r.arrive
		c.TotalMemLatency += finish - r.arrive
		c.servedC.Inc()
		c.bankServed[bi].Inc()
		c.queueWaitC.Add(now - r.arrive)
		c.memLatC.Add(finish - r.arrive)
		if tr := c.obs.Tracer; tr.Enabled() {
			tr.Emit(now, "dram", outcome, c.comp, dur, "bank="+strconv.Itoa(bi))
		}
		if c.Probe != nil {
			c.Probe.Serve(c.ID, bi, r.arrive, now, finish, r.bypassed)
		}
		r.finish = finish
		c.sim.Schedule(finish, r)
	}
}

// pick returns the index of the FR-FCFS choice for the bank, or -1: the
// oldest row-buffer hit if any, else the oldest request for the bank —
// bounded by the starvation cap: once the oldest pending request for the
// bank has been bypassed StarveLimit times by younger hits, the bank
// serves strictly in arrival order until it drains.
func (c *Controller) pick(bank int) int {
	oldest, hit := -1, -1
	for i, r := range c.pending {
		if r.bank != bank {
			continue
		}
		if oldest == -1 {
			oldest = i
		}
		if r.row == c.banks[bank].openRow {
			hit = i // pending is in arrival order: first hit is oldest hit
			break
		}
	}
	if hit == -1 || hit == oldest {
		return oldest
	}
	// Bypass counts are non-increasing in arrival order (every bypass
	// increments all requests older than the served hit), so the oldest
	// request's count alone decides whether the cap is hit for this bank.
	if c.pending[oldest].bypassed >= c.starve {
		return oldest
	}
	for _, r := range c.pending[:hit] {
		if r.bank == bank {
			r.bypassed++
		}
	}
	return hit
}

// setQueueLen folds the elapsed interval at the previous queue length into
// the plain accumulator and mirrors the new length into the registry gauge.
func (c *Controller) setQueueLen(now int64) {
	n := int64(len(c.pending))
	c.qInt += c.qCur * (now - c.qLast)
	c.qLast = now
	c.qCur = n
	c.queueLen.Set(now, n)
}

// QueueOccupancy returns the time-averaged queue length over [0, until]
// (the bank queue utilization of Figure 18), extending the last recorded
// length to until. It reads the controller's own accumulator, not the
// registry gauge, so it holds under a null observer.
func (c *Controller) QueueOccupancy(until int64) float64 {
	if until <= 0 {
		return 0
	}
	return float64(c.qInt+c.qCur*(until-c.qLast)) / float64(until)
}

// BankServed returns the number of requests the bank has completed.
func (c *Controller) BankServed(bank int) int64 { return c.bankServed[bank].Value() }

// AvgMemLatency returns the mean request latency (queue + service).
func (c *Controller) AvgMemLatency() float64 {
	if c.Served == 0 {
		return 0
	}
	return float64(c.TotalMemLatency) / float64(c.Served)
}

// Outstanding returns the current queue depth (for tests).
func (c *Controller) Outstanding() int { return len(c.pending) }
