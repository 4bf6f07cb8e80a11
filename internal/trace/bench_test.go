package trace

import (
	"runtime"
	"runtime/debug"
	"testing"

	"offchip/internal/ir"
	"offchip/internal/layout"
	"offchip/internal/sim"
	"offchip/internal/workloads"
)

// benchApp is the application BenchmarkGenerate traces: apsi's three nests
// mix 2-D and 3-D arrays, so both the identity and the optimized layout
// paths carry real work.
const benchApp = "apsi"

func loadBench(tb testing.TB) (*ir.Program, *ir.DataStore, layout.Machine, *layout.Result) {
	tb.Helper()
	app, ok := workloads.ByName(benchApp)
	if !ok {
		tb.Fatalf("no workload %s", benchApp)
	}
	p, store, err := app.Load()
	if err != nil {
		tb.Fatal(err)
	}
	m := diffSchemes[0].machine()
	return p, store, m, optimizeFor(tb, p, store, m, 0)
}

func accesses(w *sim.Workload) int {
	n := 0
	for i := range w.Streams {
		n += len(w.Streams[i].Accesses)
	}
	return n
}

// BenchmarkGenerate times one full-length Generate call per op and reports
// the per-access cost; allocs/op is the per-call allocation count that
// `make bench-smoke` pins (it must not scale with the trace).
func BenchmarkGenerate(b *testing.B) {
	p, store, m, res := loadBench(b)
	for _, lay := range []struct {
		name string
		res  *layout.Result
	}{{"identity", identityFor(p)}, {"optimized", res}} {
		b.Run(lay.name, func(b *testing.B) {
			opt := Options{MaxAccessesPerThread: Unlimited}
			var ms0, ms1 runtime.MemStats
			b.ReportAllocs()
			runtime.ReadMemStats(&ms0)
			n := 0
			for i := 0; i < b.N; i++ {
				w, err := Generate(p, lay.res, m, store, opt)
				if err != nil {
					b.Fatal(err)
				}
				n += accesses(w)
			}
			runtime.ReadMemStats(&ms1)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/access")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(n), "allocs/access")
		})
	}
}

// TestGenerateAllocsIndependentOfLength: the compiled generator allocates
// per call (compiled nests, one access and one phase slice per stream), never
// per access, so a 100× longer trace costs exactly the same allocations. The
// collector is paused while counting: its own bookkeeping allocates now and
// then, and how often depends on how much the traces allocate.
func TestGenerateAllocsIndependentOfLength(t *testing.T) {
	p, store, m, res := loadBench(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, r := range []*layout.Result{identityFor(p), res} {
		allocs := func(cap int) float64 {
			return testing.AllocsPerRun(2, func() {
				if _, err := Generate(p, r, m, store, Options{Threads: 8, MaxAccessesPerThread: cap}); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(1000), allocs(100000)
		if short != long {
			t.Errorf("optimized=%d: %v allocs at cap 1k, %v at cap 100k", r.ArraysOptimized, short, long)
		}
	}
}
