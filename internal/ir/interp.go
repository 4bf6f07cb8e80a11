package ir

import (
	"fmt"

	"offchip/internal/linalg"
)

// DataStore holds the runtime contents of index arrays so the interpreter
// can resolve indexed references (A[idx[i]]). Arrays without stored contents
// read as zero.
type DataStore struct {
	vals map[*Array][]int64
}

// NewDataStore returns an empty store.
func NewDataStore() *DataStore {
	return &DataStore{vals: map[*Array][]int64{}}
}

// SetContents installs the linearized (row-major) integer contents of an
// index array.
func (d *DataStore) SetContents(a *Array, vals []int64) {
	d.vals[a] = vals
}

// Contents returns the stored contents of a, or nil.
func (d *DataStore) Contents(a *Array) []int64 {
	if d == nil {
		return nil
	}
	return d.vals[a]
}

// Lookup reads position pos of index array a, clamping out-of-range
// positions into the stored extent (profile-approximated references may
// slightly overrun).
func (d *DataStore) Lookup(a *Array, pos int64) int64 {
	return IndexAt(d.Contents(a), pos)
}

// IndexAt reads position pos of index-array contents with Lookup's
// clamping; empty contents read as zero.
func IndexAt(vs []int64, pos int64) int64 {
	if len(vs) == 0 {
		return 0
	}
	if pos < 0 {
		pos = 0
	}
	if pos >= int64(len(vs)) {
		pos = int64(len(vs)) - 1
	}
	return vs[pos]
}

// EvalRef evaluates the element coordinate touched by the reference under
// the given loop-variable environment, resolving indexed subscripts through
// the store.
func EvalRef(r *Ref, env map[string]int64, store *DataStore) linalg.Vec {
	coord := make(linalg.Vec, len(r.Subs))
	for dim, sub := range r.Subs {
		if is, ok := r.IndexSubs[dim]; ok {
			coord[dim] = store.Lookup(is.IndexArray, is.Inner.Eval(env))
		} else {
			coord[dim] = sub.Eval(env)
		}
	}
	return coord
}

// Iterate enumerates the iteration space of the nest in lexicographic order,
// invoking yield with the environment of loop-variable values. Iteration
// stops early if yield returns false; Iterate reports whether the walk ran
// to completion.
func (n *LoopNest) Iterate(yield func(env map[string]int64) bool) bool {
	env := make(map[string]int64, len(n.Loops))
	return n.iterateFrom(0, env, yield)
}

func (n *LoopNest) iterateFrom(depth int, env map[string]int64, yield func(map[string]int64) bool) bool {
	if depth == len(n.Loops) {
		return yield(env)
	}
	l := n.Loops[depth]
	lo, hi := l.Lower.Eval(env), l.Upper.Eval(env)
	for v := lo; v < hi; v++ {
		env[l.Var] = v
		if !n.iterateFrom(depth+1, env, yield) {
			return false
		}
	}
	delete(env, l.Var)
	return true
}

// ThreadChunk returns the half-open sub-range [lo', hi') of [lo, hi) that
// OpenMP static scheduling assigns to thread t of nthreads: the range is
// divided into nthreads contiguous chunks of size ⌈(hi−lo)/nthreads⌉ and
// assigned in thread order (the last chunks may be short or empty).
func ThreadChunk(lo, hi int64, t, nthreads int) (int64, int64) {
	if nthreads <= 0 {
		panic(fmt.Sprintf("ir: %d threads", nthreads))
	}
	total := hi - lo
	if total <= 0 {
		return lo, lo
	}
	chunk := (total + int64(nthreads) - 1) / int64(nthreads)
	clo := lo + int64(t)*chunk
	chi := clo + chunk
	if clo > hi {
		clo = hi
	}
	if chi > hi {
		chi = hi
	}
	return clo, chi
}

// IterateThread enumerates only the iterations that OpenMP static scheduling
// assigns to thread t of nthreads: the parallel loop's range is split into
// contiguous chunks, outer and inner sequential loops run in full. It
// reports whether the walk ran to completion.
func (n *LoopNest) IterateThread(t, nthreads int, yield func(env map[string]int64) bool) bool {
	if t < 0 || t >= nthreads {
		panic(fmt.Sprintf("ir: thread %d of %d", t, nthreads))
	}
	env := make(map[string]int64, len(n.Loops))
	return n.iterateThreadFrom(0, t, nthreads, env, yield)
}

func (n *LoopNest) iterateThreadFrom(depth, t, nthreads int, env map[string]int64, yield func(map[string]int64) bool) bool {
	if depth == len(n.Loops) {
		return yield(env)
	}
	l := n.Loops[depth]
	lo, hi := l.Lower.Eval(env), l.Upper.Eval(env)
	if depth == n.ParDepth {
		lo, hi = ThreadChunk(lo, hi, t, nthreads)
	}
	for v := lo; v < hi; v++ {
		env[l.Var] = v
		if !n.iterateThreadFrom(depth+1, t, nthreads, env, yield) {
			return false
		}
	}
	delete(env, l.Var)
	return true
}

// Touched returns, for each thread, the set of linear element indices of arr
// touched by that thread across all nests of the program. It is used by
// tests and by the mapping-quality analysis.
func Touched(p *Program, arr *Array, nthreads int, store *DataStore) []map[int64]bool {
	out := make([]map[int64]bool, nthreads)
	for t := range out {
		out[t] = map[int64]bool{}
	}
	for _, nest := range p.Nests {
		for t := 0; t < nthreads; t++ {
			nest.IterateThread(t, nthreads, func(env map[string]int64) bool {
				for _, s := range nest.Body {
					for _, r := range s.Refs() {
						if r.Array != arr {
							continue
						}
						out[t][arr.LinearIndex(EvalRef(r, env, store))] = true
					}
				}
				return true
			})
		}
	}
	return out
}
