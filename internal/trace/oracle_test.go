package trace

import (
	"offchip/internal/deps"
	"offchip/internal/ir"
	"offchip/internal/layout"
	"offchip/internal/sim"
)

// The interpreter the compiled generator replaced, kept as its test oracle:
// it re-evaluates every reference of every iteration through the IR's
// string-keyed environment (ir.EvalRef) and ArrayLayout.Offset, exactly as
// Generate did before it was compiled. Generate must match it byte for byte
// (differential_test.go).

// oracleGenerate is the interpreted Generate.
func oracleGenerate(p *ir.Program, res *layout.Result, m layout.Machine, store *ir.DataStore, opt Options) (*sim.Workload, error) {
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

	w := &sim.Workload{Name: p.Name}
	for t := 0; t < threads; t++ {
		stream := sim.Stream{Core: t % cores, AppID: opt.AppID}
		budget := maxAcc
		for _, nest := range p.Nests {
			stream.Phases = append(stream.Phases, len(stream.Accesses))
			if budget <= 0 {
				continue
			}
			nestBudget := budget / remainingNests(p, nest)
			if nestBudget == 0 {
				nestBudget = 1
			}
			refsPerIter := 0
			for _, s := range nest.Body {
				refsPerIter += len(s.Refs())
			}
			if refsPerIter == 0 {
				continue
			}
			iterBudget := nestBudget / refsPerIter
			if iterBudget == 0 {
				iterBudget = 1
			}
			totalIters := nest.TripCount() / int64(threads)
			if totalIters == 0 {
				totalIters = 1
			}
			stride := int64(1)
			if totalIters > int64(iterBudget) {
				stride = totalIters / int64(iterBudget)
			}
			order := oracleLoopOrder(nest, res, store)
			var k int64
			iterateOrdered(nest, order, t, threads, func(env map[string]int64) bool {
				if k%stride != 0 {
					k++
					return true
				}
				k++
				for _, s := range nest.Body {
					for _, r := range s.Refs() {
						if len(stream.Accesses) >= maxAcc {
							return false
						}
						al := res.Layout(r.Array)
						coord := ir.EvalRef(r, env, store)
						off := al.Offset(coord)
						stream.Accesses = append(stream.Accesses, sim.Access{
							VAddr:     bases[r.Array] + off,
							DesiredMC: int8(al.DesiredMC(off)),
						})
					}
				}
				return len(stream.Accesses) < maxAcc
			})
			budget = maxAcc - len(stream.Accesses)
		}
		w.Streams = append(w.Streams, stream)
	}
	return w, nil
}

// oracleLoopOrder is loopOrder over the IR's environments.
func oracleLoopOrder(nest *ir.LoopNest, res *layout.Result, store *ir.DataStore) []int {
	m := nest.Depth()
	order := make([]int, 0, m)
	env := map[string]int64{}
	for _, l := range nest.Loops {
		lo, hi := l.Lower.Eval(env), l.Upper.Eval(env)
		env[l.Var] = (lo + hi) / 2
	}
	best, bestCost := m-1, int64(-1)
	for li := m - 1; li >= 0; li-- {
		v := nest.Loops[li].Var
		legal := true
		for lj, other := range nest.Loops {
			if lj == li {
				continue
			}
			if other.Lower.Coeff(v) != 0 || other.Upper.Coeff(v) != 0 {
				legal = false
				break
			}
		}
		if !legal {
			continue
		}
		if li != m-1 && !deps.InnermostLegal(nest, li) {
			continue
		}
		var cost int64
		for _, s := range nest.Body {
			for _, r := range s.Refs() {
				al := res.Layout(r.Array)
				base := ir.EvalRef(r, env, store)
				env[v]++
				next := ir.EvalRef(r, env, store)
				env[v]--
				d := al.Offset(next) - al.Offset(base)
				if d < 0 {
					d = -d
				}
				cost += d
			}
		}
		if bestCost == -1 || cost < bestCost {
			best, bestCost = li, cost
		}
	}
	for li := 0; li < m; li++ {
		if li != best {
			order = append(order, li)
		}
	}
	return append(order, best)
}

// iterateOrdered enumerates the thread's chunk of the nest with the loops
// visited in the given order (a permutation of loop indices). Bounds are
// evaluated when a loop is entered.
func iterateOrdered(nest *ir.LoopNest, order []int, t, threads int, yield func(map[string]int64) bool) bool {
	env := make(map[string]int64, nest.Depth())
	var rec func(d int) bool
	rec = func(d int) bool {
		if d == len(order) {
			return yield(env)
		}
		l := nest.Loops[order[d]]
		lo, hi := l.Lower.Eval(env), l.Upper.Eval(env)
		if order[d] == nest.ParDepth {
			lo, hi = ir.ThreadChunk(lo, hi, t, threads)
		}
		for v := lo; v < hi; v++ {
			env[l.Var] = v
			if !rec(d + 1) {
				return false
			}
		}
		delete(env, l.Var)
		return true
	}
	return rec(0)
}
