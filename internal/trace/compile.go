package trace

import (
	"fmt"

	"offchip/internal/deps"
	"offchip/internal/ir"
	"offchip/internal/layout"
)

// nestCode is one loop nest compiled for one Generate call. Loop variables
// become dense slots numbered by depth in the walk order loopOrder chose,
// and every bound and reference is an affine row over those slots: depth
// coefficients followed by the constant. Variables that are not loop
// variables of the nest read as zero, as in the IR's own evaluation.
type nestCode struct {
	depth int
	par   int // slot of the parallel loop, -1 if it has none

	// lower and upper hold one row per slot. A bound's coefficients on its
	// own and deeper slots are dropped: those loops are not bound yet when
	// the bound is evaluated. outerDep[d] reports whether some deeper bound
	// reads slot d, so counting must visit slot d's values one by one.
	lower, upper []int64
	outerDep     []bool

	refs []refCode
	rows []int64 // the references' value rows, flattened

	refsPerIter int
	trip        int64 // the sampling-stride estimate: TripCount
	remaining   int   // nests from this one to the end of the program
}

// refCode is one reference of a compiled nest.
type refCode struct {
	al   *layout.ArrayLayout
	base int64 // the array's base virtual address
	row  int   // first of the reference's rows in nestCode.rows
	dims int   // rows: one per array dimension

	// index is nil for affine references, whose rows are composed with the
	// layout into placement points (layout.Compose). An indexed reference's
	// rows are element coordinates, index[d].on marking the coordinates read
	// through an index array at the row's value. Before the walk order is
	// chosen, every reference's rows are element coordinates over the
	// original loop indices.
	index []indexDim
}

type indexDim struct {
	on   bool
	vals []int64 // the index array's contents (nil reads as zero)
}

// compile lowers every nest of the program against the layouts in res.
func compile(p *ir.Program, res *layout.Result, store *ir.DataStore, bases map[*ir.Array]int64) ([]*nestCode, error) {
	layouts := map[*ir.Array]*layout.ArrayLayout{}
	layoutOf := func(a *ir.Array) *layout.ArrayLayout {
		al, ok := layouts[a]
		if !ok {
			al = res.Layout(a)
			layouts[a] = al
		}
		return al
	}
	out := make([]*nestCode, len(p.Nests))
	for ni, nest := range p.Nests {
		nc, err := compileNest(nest, layoutOf, store, bases)
		if err != nil {
			return nil, fmt.Errorf("trace: nest %d: %w", ni, err)
		}
		nc.remaining = remainingNests(p, nest)
		out[ni] = nc
	}
	return out, nil
}

func compileNest(nest *ir.LoopNest, layoutOf func(*ir.Array) *layout.ArrayLayout, store *ir.DataStore, bases map[*ir.Array]int64) (*nestCode, error) {
	var refs []*ir.Ref
	for _, s := range nest.Body {
		refs = append(refs, s.Refs()...)
	}
	if len(refs) == 0 {
		return &nestCode{}, nil
	}
	m := nest.Depth()
	if m == 0 {
		return nil, fmt.Errorf("references outside any loop")
	}
	slot := make(map[string]int, m)
	for i, l := range nest.Loops {
		if _, dup := slot[l.Var]; dup {
			return nil, fmt.Errorf("loop variable %s is reused", l.Var)
		}
		slot[l.Var] = i
	}
	w := m + 1
	// affine lowers e into the row at dst: coefficients over the original
	// loop indices, constant last.
	affine := func(dst []int64, e ir.LinExpr) {
		for v, k := range e.Coeffs {
			if s, ok := slot[v]; ok {
				dst[s] += k
			}
		}
		dst[m] = e.Const
	}
	// Rows 2i and 2i+1 of bnds are loop i's lower and upper bound.
	bnds := make([]int64, 2*m*w)
	for i, l := range nest.Loops {
		affine(bnds[2*i*w:], l.Lower)
		affine(bnds[(2*i+1)*w:], l.Upper)
	}
	src := make([]refCode, len(refs))
	rows := 0
	for i, r := range refs {
		n := len(r.Subs)
		if n != r.Array.NumDims() {
			return nil, fmt.Errorf("%s subscripted with %d of %d dims", r.Array.Name, n, r.Array.NumDims())
		}
		src[i] = refCode{al: layoutOf(r.Array), base: bases[r.Array], row: rows, dims: n}
		rows += n
	}
	coords := make([]int64, rows*w)
	for i, r := range refs {
		sr := &src[i]
		for d, sub := range r.Subs {
			if is, ok := r.IndexSubs[d]; ok {
				if sr.index == nil {
					sr.index = make([]indexDim, sr.dims)
				}
				sr.index[d] = indexDim{on: true, vals: store.Contents(is.IndexArray)}
				sub = is.Inner
			}
			affine(coords[(sr.row+d)*w:], sub)
		}
	}

	order := loopOrder(nest, bnds, coords, src)
	// perm copies a row over original loop indices into dst as a row over
	// the walk's slots, keeping the coefficients of the first keep slots.
	perm := func(dst, row []int64, keep int) {
		for d, li := range order[:keep] {
			dst[d] = row[li]
		}
		dst[m] = row[m]
	}
	nc := &nestCode{
		depth:       m,
		par:         -1,
		lower:       make([]int64, m*w),
		upper:       make([]int64, m*w),
		outerDep:    make([]bool, m),
		refs:        src,
		rows:        make([]int64, rows*w),
		refsPerIter: len(refs),
		trip:        nest.TripCount(),
	}
	for d, li := range order {
		perm(nc.lower[d*w:], bnds[2*li*w:], d)
		perm(nc.upper[d*w:], bnds[(2*li+1)*w:], d)
		if li == nest.ParDepth {
			nc.par = d
		}
	}
	for d := 0; d < m; d++ {
		for e := d + 1; e < m; e++ {
			if nc.lower[e*w+d] != 0 || nc.upper[e*w+d] != 0 {
				nc.outerDep[d] = true
			}
		}
	}
	composed := make([]int64, rows*w)
	for _, sr := range src {
		lo, hi := sr.row*w, (sr.row+sr.dims)*w
		ref := coords[lo:hi]
		if sr.index == nil {
			sr.al.Compose(composed[lo:hi], ref, w)
			ref = composed[lo:hi]
		}
		for d := 0; d < sr.dims; d++ {
			perm(nc.rows[lo+d*w:], ref[d*w:], m)
		}
	}
	return nc, nil
}

// loopOrder emulates the node compiler's cache-oriented loop permutation
// (Section 6.1: original and optimized codes are both compiled "with the
// highest level of optimization, enabling … loop permutation"): it returns
// the nest's loop indices with the loop whose unit step moves the smallest
// distance in the (layout-mapped) address space placed innermost. Both the
// baseline and the optimized trace therefore enjoy the best loop order for
// their own layout, so the two runs differ in where misses go, not in how
// often they miss — matching the paper's <1% LLC-miss impact.
//
// Candidates are filtered for legality: the moved loop's variable must not
// appear in another loop's bounds, and the permutation must preserve every
// data dependence (checked with internal/deps). Bounds and references come
// in as rows over the original loop indices.
func loopOrder(nest *ir.LoopNest, bnds, coords []int64, refs []refCode) []int {
	m := nest.Depth()
	w := m + 1
	// Representative iteration: the midpoint of each loop's bounds under
	// an all-midpoint environment (evaluated outside-in; loops not yet
	// placed read as zero).
	mid := make([]int64, m)
	for li := range mid {
		mid[li] = (dot(bnds[2*li*w:(2*li+1)*w], mid) + dot(bnds[(2*li+1)*w:(2*li+2)*w], mid)) / 2
	}
	dims := 0
	for _, r := range refs {
		dims = max(dims, r.dims)
	}
	coord, point := make([]int64, dims), make([]int64, dims)
	offset := func(r *refCode) int64 {
		c, p := coord[:r.dims], point[:r.dims]
		for d := range c {
			c[d] = dot(coords[(r.row+d)*w:(r.row+d+1)*w], mid)
			if r.index != nil && r.index[d].on {
				c[d] = ir.IndexAt(r.index[d].vals, c[d])
			}
		}
		r.al.Transform(p, c)
		off, _ := r.al.Place(p)
		return off
	}
	best, bestCost := m-1, int64(-1)
	for li := m - 1; li >= 0; li-- {
		// Legality, part 1: a loop may move innermost only if no other
		// loop's bounds reference its variable (e.g. hpccg's nonzero loop
		// runs 8·row .. 8·row+8 — row must stay outside it).
		legal := true
		for lj := 0; lj < m; lj++ {
			if lj != li && (bnds[2*lj*w+li] != 0 || bnds[(2*lj+1)*w+li] != 0) {
				legal = false
				break
			}
		}
		if !legal {
			continue
		}
		var cost int64
		for i := range refs {
			base := offset(&refs[i])
			mid[li]++
			next := offset(&refs[i])
			mid[li]--
			d := next - base
			if d < 0 {
				d = -d
			}
			cost += d
		}
		// Legality, part 2: the permutation must preserve every data
		// dependence of the nest (loop permutation, unlike the data
		// transformation itself, is constrained by dependences). Checked
		// last, and only for a candidate that would win: it is the
		// expensive check.
		if (bestCost == -1 || cost < bestCost) && (li == m-1 || deps.InnermostLegal(nest, li)) {
			best, bestCost = li, cost
		}
	}
	order := make([]int, 0, m)
	for li := 0; li < m; li++ {
		if li != best {
			order = append(order, li)
		}
	}
	return append(order, best)
}

// count returns the number of iterations of the thread's chunk of the nest
// from slot d inward. The innermost loop counts in closed form, and so does
// every loop whose variable no deeper bound reads.
func (nc *nestCode) count(d int, slots []int64, t, threads int) int64 {
	lo, hi := nc.bounds(d, slots, t, threads)
	if hi <= lo {
		return 0
	}
	if d == nc.depth-1 {
		return hi - lo
	}
	if !nc.outerDep[d] {
		slots[d] = lo
		return (hi - lo) * nc.count(d+1, slots, t, threads)
	}
	var n int64
	for v := lo; v < hi; v++ {
		slots[d] = v
		n += nc.count(d+1, slots, t, threads)
	}
	return n
}

// bounds evaluates slot d's loop range, restricted to the thread's
// OpenMP-static chunk on the parallel loop.
func (nc *nestCode) bounds(d int, slots []int64, t, threads int) (int64, int64) {
	w := nc.depth + 1
	lo, hi := dot(nc.lower[d*w:(d+1)*w], slots), dot(nc.upper[d*w:(d+1)*w], slots)
	if d == nc.par {
		lo, hi = ir.ThreadChunk(lo, hi, t, threads)
	}
	return lo, hi
}

// dot evaluates an affine row (coefficients, then the constant) at slots.
func dot(row, slots []int64) int64 {
	n := len(row) - 1
	v := row[n]
	for s, c := range row[:n] {
		v += c * slots[s]
	}
	return v
}
