// Package trace turns an affine program plus a layout-pass result into the
// per-core virtual-address streams the simulator replays. Each software
// thread executes its OpenMP-static chunk of every parallel nest in program
// order; every reference becomes one access whose virtual address is the
// array's base plus the layout's Offset — so the same generator produces
// baseline traces (identity layouts) and optimized traces (customized
// layouts), and indexed references resolve through the profiled index
// arrays exactly as the real program would.
package trace

import (
	"fmt"

	"offchip/internal/ir"
	"offchip/internal/layout"
	"offchip/internal/sim"
)

// Options shapes trace generation.
type Options struct {
	// Threads is the total software thread count (default: one per core).
	Threads int
	// MaxAccessesPerThread caps each thread's trace; iteration sampling
	// (a deterministic stride) covers the whole iteration space when the
	// cap is smaller than the full run. Zero means DefaultMaxAccesses;
	// Unlimited disables sampling entirely. Experiments use full traces —
	// sampling perturbs cache reuse differently for different layouts,
	// and the paper's effect must come from request placement, not from
	// miss-count changes (Section 6.1 reports <1% LLC-miss impact).
	MaxAccessesPerThread int
	// AppID tags the streams (distinct IDs isolate address spaces in
	// multiprogrammed runs).
	AppID int
}

// DefaultMaxAccesses bounds per-thread traces so full-suite experiments
// stay laptop-fast while covering every array region.
const DefaultMaxAccesses = 1500

// Unlimited disables the per-thread access cap and iteration sampling.
const Unlimited = -1

// Generate builds the workload for one application under the layouts in
// res. The store supplies index-array contents for irregular references.
//
// Generation is compile-then-emit: every nest is compiled once (loop
// variables become dense slots, bounds and subscripts affine rows over them,
// each layout's affine part folded into the rows — see compile.go), a
// counting pass sizes each thread's stream exactly, and the emitter walks
// the slots writing accesses in place, so no access allocates.
func Generate(p *ir.Program, res *layout.Result, m layout.Machine, store *ir.DataStore, opt Options) (*sim.Workload, error) {
	cores := m.Cores()
	threads := opt.Threads
	if threads <= 0 {
		threads = cores
	}
	unlimited := opt.MaxAccessesPerThread < 0
	maxAcc := opt.MaxAccessesPerThread
	if maxAcc == 0 {
		maxAcc = DefaultMaxAccesses
	}
	if unlimited {
		maxAcc = 1 << 62
	}

	bases, err := PlaceArrays(p, res, m)
	if err != nil {
		return nil, err
	}
	nests, err := compile(p, res, store, bases)
	if err != nil {
		return nil, err
	}
	// Each stream's accesses are one exactly sized allocation; the small
	// phase arrays share one. (One array for all streams' accesses saves
	// allocations but raised the suite-cold benchmark's peak RSS by 7%.)
	e := newEmitter(nests, threads)
	plans := make([]nestPlan, len(nests))
	phases := make([]int, threads*len(nests))
	w := &sim.Workload{Name: p.Name, Streams: make([]sim.Stream, threads)}
	for t := range w.Streams {
		st := &w.Streams[t]
		st.Core, st.AppID = t%cores, opt.AppID
		if n := e.plan(plans, t, maxAcc); n > 0 {
			st.Accesses = make([]sim.Access, n)
		}
		if len(nests) > 0 {
			st.Phases = phases[t*len(nests) : (t+1)*len(nests) : (t+1)*len(nests)]
		}
		if err := e.emit(st, t, plans); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// emitter writes the streams of compiled nests one thread at a time. Its
// scratch is sized once per Generate call and reused by every thread.
type emitter struct {
	nests   []*nestCode
	threads int

	// The walk: loop values by slot, and every reference row's value at the
	// current sampled iteration with its step to the next one.
	slots, vals, steps []int64
	coord, point       []int64 // indexed references' coordinate and placement point

	t      int
	nc     *nestCode
	stride int64 // sample every stride-th iteration of the nest
	k      int64 // iterations of the nest visited so far
	out    []sim.Access
	n      int // accesses written to out
	limit  int // stop the nest's walk when n reaches it
}

// nestPlan is one thread's share of one nest: the sampling stride and the
// exact number of accesses the nest contributes.
type nestPlan struct {
	stride int64
	n      int
}

func newEmitter(nests []*nestCode, threads int) *emitter {
	var depth, rows, dims int
	for _, nc := range nests {
		depth = max(depth, nc.depth)
		rows = max(rows, len(nc.rows)/(nc.depth+1))
		for _, r := range nc.refs {
			dims = max(dims, r.dims)
		}
	}
	return &emitter{
		nests:   nests,
		threads: threads,
		slots:   make([]int64, depth),
		vals:    make([]int64, rows),
		steps:   make([]int64, rows),
		coord:   make([]int64, dims),
		point:   make([]int64, dims),
	}
}

// plan fills thread t's per-nest plans and returns the thread's access
// count. Each nest gets a budget share of what is left of the thread's cap
// (so earlier nests cannot consume it all) and a sampling stride that
// spreads that share over the thread's whole chunk; counting the chunk's
// iterations turns both into an exact access count.
func (e *emitter) plan(plans []nestPlan, t, maxAcc int) int {
	total, budget := 0, maxAcc
	for i, nc := range e.nests {
		plans[i] = nestPlan{}
		if budget <= 0 || nc.refsPerIter == 0 {
			// An exhausted budget still leaves the nest its phase marker,
			// so phase indices agree across streams whose budgets ran out
			// at different points.
			continue
		}
		nestBudget := budget / nc.remaining
		if nestBudget == 0 {
			nestBudget = 1
		}
		iterBudget := nestBudget / nc.refsPerIter
		if iterBudget == 0 {
			iterBudget = 1
		}
		// Thread's share of the nest's iterations.
		totalIters := nc.trip / int64(e.threads)
		if totalIters == 0 {
			totalIters = 1
		}
		stride := int64(1)
		if totalIters > int64(iterBudget) {
			stride = totalIters / int64(iterBudget)
		}
		samples := (nc.count(0, e.slots, t, e.threads) + stride - 1) / stride
		n := samples * int64(nc.refsPerIter)
		if n > int64(budget) {
			n = int64(budget)
		}
		plans[i] = nestPlan{stride: stride, n: int(n)}
		total += int(n)
		budget = maxAcc - total
	}
	return total
}

// emit writes thread t's planned accesses and phase markers into st.
func (e *emitter) emit(st *sim.Stream, t int, plans []nestPlan) error {
	e.t, e.out, e.n = t, st.Accesses, 0
	for i, nc := range e.nests {
		st.Phases[i] = e.n
		pl := plans[i]
		if pl.n == 0 {
			continue
		}
		e.nc, e.stride, e.k, e.limit = nc, pl.stride, 0, e.n+pl.n
		e.walk(0)
		if e.n != e.limit {
			return fmt.Errorf("trace: thread %d nest %d emitted %d accesses, counted %d",
				t, i, e.n-(e.limit-pl.n), pl.n)
		}
	}
	return nil
}

// walk enumerates the thread's chunk of the nest from slot d inward and
// emits every stride-th iteration. The innermost loop jumps straight from
// one sampled iteration to the next, advancing each reference row by a
// constant step. It reports false once the nest's access count is reached.
func (e *emitter) walk(d int) bool {
	nc := e.nc
	lo, hi := nc.bounds(d, e.slots, e.t, e.threads)
	if d < nc.depth-1 {
		for v := lo; v < hi; v++ {
			e.slots[d] = v
			if !e.walk(d + 1) {
				return false
			}
		}
		return true
	}
	if hi <= lo {
		return true
	}
	first := lo + (e.stride-e.k%e.stride)%e.stride
	e.k += hi - lo
	if first >= hi {
		return true
	}
	e.slots[d] = first
	w := nc.depth + 1
	vals, steps := e.vals[:len(nc.rows)/w], e.steps[:len(nc.rows)/w]
	for j := range vals {
		row := nc.rows[j*w : (j+1)*w]
		vals[j] = dot(row, e.slots)
		steps[j] = row[d] * e.stride
	}
	for v := first; v < hi; v += e.stride {
		for i := range nc.refs {
			r := &nc.refs[i]
			p := vals[r.row : r.row+r.dims]
			if r.index != nil {
				p = e.resolve(r, p)
			}
			off, mc := r.al.Place(p)
			e.out[e.n] = sim.Access{VAddr: r.base + off, DesiredMC: int8(mc)}
			e.n++
			if e.n == e.limit {
				return false
			}
		}
		for j := range vals {
			vals[j] += steps[j]
		}
	}
	return true
}

// resolve turns an indexed reference's row values into its placement
// point: indexed coordinates read through the index array, then the
// layout's transformation applies.
func (e *emitter) resolve(r *refCode, v []int64) []int64 {
	coord, point := e.coord[:r.dims], e.point[:r.dims]
	for d, x := range v {
		if r.index[d].on {
			x = ir.IndexAt(r.index[d].vals, x)
		}
		coord[d] = x
	}
	r.al.Transform(point, coord)
	return point
}

// remainingNests counts nests from the given one to the end, so earlier
// nests don't consume the whole budget.
func remainingNests(p *ir.Program, from *ir.LoopNest) int {
	for i, n := range p.Nests {
		if n == from {
			return len(p.Nests) - i
		}
	}
	return 1
}

// PlaceArrays assigns each array a base virtual address aligned so that the
// MC-select and home-bank bits of offset zero are zero: bases are multiples
// of both NumMCs·PageBytes and Cores·LineBytes (the padding alignment of
// Section 5.3).
func PlaceArrays(p *ir.Program, res *layout.Result, m layout.Machine) (map[*ir.Array]int64, error) {
	align := m.PageBytes * int64(m.NumMCs)
	if cl := m.LineUnit() * int64(m.Cores()); cl > align {
		if cl%align == 0 {
			align = cl
		} else {
			align *= cl // fallback: a common multiple
		}
	}
	bases := map[*ir.Array]int64{}
	var next int64
	for _, arr := range p.Arrays {
		bases[arr] = next
		size := res.Layout(arr).SizeBytes()
		if size <= 0 {
			return nil, fmt.Errorf("trace: array %s has size %d", arr.Name, size)
		}
		next += (size + align - 1) / align * align
	}
	return bases, nil
}

// Merge combines the streams of several workloads (multiprogrammed mixes).
func Merge(name string, ws ...*sim.Workload) *sim.Workload {
	out := &sim.Workload{Name: name}
	for _, w := range ws {
		out.Streams = append(out.Streams, w.Streams...)
	}
	return out
}
