package trace

import (
	"fmt"
	"testing"

	"offchip/internal/approx"
	"offchip/internal/ir"
	"offchip/internal/layout"
	"offchip/internal/sim"
	"offchip/internal/workloads"
)

// The compiled generator must reproduce the interpreter oracle
// (oracle_test.go) byte for byte: every stream's core, app ID, phase
// markers, virtual addresses and desired controllers.

// diffScheme is one machine configuration of the differential sweep — the
// three the trace cache's differential tests cover.
type diffScheme struct {
	name string
	l2   layout.CacheKind
	gran layout.Granularity
}

var diffSchemes = []diffScheme{
	{"line-private", layout.PrivateL2, layout.LineInterleave},
	{"page-private", layout.PrivateL2, layout.PageInterleave},
	{"line-shared", layout.SharedL2, layout.LineInterleave},
}

func (sc diffScheme) machine() layout.Machine {
	m := layout.Default8x8()
	m.L2, m.Interleave = sc.l2, sc.gran
	return m
}

// optimizeFor runs the layout pass as core.Workloads does.
func optimizeFor(t testing.TB, p *ir.Program, store *ir.DataStore, m layout.Machine, threads int) *layout.Result {
	t.Helper()
	cm, err := layout.MappingM1(m, layout.PlacementCorners(m.MeshX, m.MeshY))
	if err != nil {
		t.Fatal(err)
	}
	res, err := layout.Optimize(p, m, cm, &layout.Options{Threads: threads, Approx: approx.NewProfiler(store)})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// identityFor is core.Workloads' baseline result: no optimized layouts.
func identityFor(p *ir.Program) *layout.Result {
	return &layout.Result{Program: p, Layouts: map[*ir.Array]*layout.ArrayLayout{}}
}

// sameAsOracle generates with both generators and requires identical
// workloads. It returns the compiled workload.
func sameAsOracle(t *testing.T, tag string, p *ir.Program, res *layout.Result, m layout.Machine, store *ir.DataStore, opt Options) *sim.Workload {
	t.Helper()
	want, err := oracleGenerate(p, res, m, store, opt)
	if err != nil {
		t.Fatalf("%s: oracle: %v", tag, err)
	}
	got, err := Generate(p, res, m, store, opt)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if err := diffWorkloads(got, want); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	return got
}

// diffWorkloads describes the first difference between two workloads.
func diffWorkloads(got, want *sim.Workload) error {
	if got.Name != want.Name || got.Sequential != want.Sequential {
		return fmt.Errorf("header (%q,%v), want (%q,%v)", got.Name, got.Sequential, want.Name, want.Sequential)
	}
	if len(got.Streams) != len(want.Streams) {
		return fmt.Errorf("%d streams, want %d", len(got.Streams), len(want.Streams))
	}
	for i := range want.Streams {
		g, w := &got.Streams[i], &want.Streams[i]
		if g.Core != w.Core || g.AppID != w.AppID {
			return fmt.Errorf("stream %d header (%d,%d), want (%d,%d)", i, g.Core, g.AppID, w.Core, w.AppID)
		}
		if len(g.Phases) != len(w.Phases) {
			return fmt.Errorf("stream %d: %d phase markers, want %d", i, len(g.Phases), len(w.Phases))
		}
		for j := range w.Phases {
			if g.Phases[j] != w.Phases[j] {
				return fmt.Errorf("stream %d phase %d at %d, want %d", i, j, g.Phases[j], w.Phases[j])
			}
		}
		if len(g.Accesses) != len(w.Accesses) {
			return fmt.Errorf("stream %d: %d accesses, want %d", i, len(g.Accesses), len(w.Accesses))
		}
		for j := range w.Accesses {
			if g.Accesses[j] != w.Accesses[j] {
				return fmt.Errorf("stream %d access %d = %+v, want %+v", i, j, g.Accesses[j], w.Accesses[j])
			}
		}
	}
	return nil
}

// TestCompiledMatchesOracle sweeps every bundled workload × the three
// schemes × {identity, optimized} × {64, 128} threads × caps {Unlimited,
// DefaultMaxAccesses, 7}. Full-length traces run on the line-private scheme
// (the suite's); -short keeps the capped sweep at 64 threads.
func TestCompiledMatchesOracle(t *testing.T) {
	threadCounts := []int{64, 128}
	if testing.Short() {
		threadCounts = threadCounts[:1]
	}
	for si, sc := range diffSchemes {
		m := sc.machine()
		for _, app := range workloads.All() {
			p, store, err := app.Load()
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range threadCounts {
				layouts := []struct {
					name string
					res  *layout.Result
				}{
					{"identity", identityFor(p)},
					{"optimized", optimizeFor(t, p, store, m, threads)},
				}
				for _, lay := range layouts {
					for _, cap := range []int{Unlimited, DefaultMaxAccesses, 7} {
						if cap == Unlimited && (si != 0 || testing.Short()) {
							continue
						}
						tag := fmt.Sprintf("%s/%s/%s/t%d/cap%d", sc.name, app.Name, lay.name, threads, cap)
						sameAsOracle(t, tag, p, lay.res, m, store, Options{Threads: threads, MaxAccessesPerThread: cap})
					}
				}
			}
		}
	}
}

// TestCompiledMatchesOracleMixes composes the default phase-changing mixes
// from compiled and from oracle traces, as core.MixWorkloads does.
func TestCompiledMatchesOracleMixes(t *testing.T) {
	m := diffSchemes[1].machine()
	for _, mix := range workloads.DefaultPhaseMixes() {
		var got, want [2][]*sim.Workload // identity, optimized
		var rotates []int
		for _, e := range mix.Entries {
			app, _ := workloads.ByName(e.App)
			p, store, err := app.Load()
			if err != nil {
				t.Fatal(err)
			}
			opt := Options{MaxAccessesPerThread: DefaultMaxAccesses}
			for i, res := range []*layout.Result{identityFor(p), optimizeFor(t, p, store, m, 0)} {
				w, err := oracleGenerate(p, res, m, store, opt)
				if err != nil {
					t.Fatal(err)
				}
				g, err := Generate(p, res, m, store, opt)
				if err != nil {
					t.Fatal(err)
				}
				want[i], got[i] = append(want[i], w), append(got[i], g)
			}
			rotates = append(rotates, e.Rotate)
		}
		for i := range got {
			gw, err := ComposeMix(mix.String(), m.Cores(), got[i], rotates)
			if err != nil {
				t.Fatal(err)
			}
			ww, err := ComposeMix(mix.String(), m.Cores(), want[i], rotates)
			if err != nil {
				t.Fatal(err)
			}
			if err := diffWorkloads(gw, ww); err != nil {
				t.Fatalf("%s layout %d: %v", mix, i, err)
			}
		}
	}
}

// handBuilt are nests the bundled workloads do not reach: bounds that read
// an outer loop, a parallel loop that permutes innermost, out-of-range
// subscripts, and §5.4 indexed references (hpccg's CRS loop written with
// its nonzero range 8·row .. 8·row+8).
var handBuilt = []string{`
program triangular
array L[48][48]
array v[48]
parfor i = 0 .. 48 {
  for j = 0 .. i+1 {
    v[i] = v[i] + L[i][j] + v[j]
  }
}
for i = 0 .. 48 {
  parfor j = i .. 48 {
    L[i][j] = L[j][i]
  }
}
parfor i = 0 .. 48 {
  for j = 0 .. i+1 {
    L[j][i] = L[j][i] + v[i]
  }
}
`, `
program crs
array x[4096]
array y[512]
array val[4096]
array col[4096] elem 4
parfor row = 0 .. 512 {
  for k = 8*row .. 8*row+8 {
    y[row] = y[row] + val[k] * x[col[k]] + x[col[k+9]] + x[col[k-3]]
  }
}
`, `
program transposed
array Z[64][64]
array W[64][64]
parfor i = 1 .. 63 {
  for j = 1 .. 63 {
    Z[j][i] = Z[j-1][i] + Z[j+1][i]
  }
}
parfor i = 0 .. 64 {
  for j = 0 .. 64 {
    W[j][i] = Z[j][i]
  }
}
`, `
program clamped
array A[32][32]
array B[32][32]
parfor i = 0 .. 32 {
  for j = 0 .. 32 {
    A[i+40][j-5] = B[i-33][2*j+7] + A[i][j]
  }
}
`, `
program deep
array T[8][16][24]
array S[8][16][24]
for t = 0 .. 2 {
  parfor i = 0 .. 8 {
    for j = 0 .. 16 {
      for k = 0 .. 24 {
        T[i][j][k] = S[i][j][k] + S[i][k-j][k]
      }
    }
  }
}
`}

// TestCompiledMatchesOracleHandBuilt runs the hand-built nests under both
// layouts and a spread of thread counts and caps, and with an index array
// that has no stored contents (it reads as zero).
func TestCompiledMatchesOracleHandBuilt(t *testing.T) {
	m := diffSchemes[0].machine()
	for _, src := range handBuilt {
		p := ir.MustParse(src)
		store := ir.NewDataStore()
		if col := p.Array("col"); col != nil {
			vals := make([]int64, col.NumElems())
			for i := range vals {
				vals[i] = int64(i*37%5000) - 200 // overruns both ends of x
			}
			store.SetContents(col, vals)
		}
		for _, st := range []*ir.DataStore{store, nil} {
			for _, threads := range []int{7, 64, 128} {
				for _, res := range []*layout.Result{identityFor(p), optimizeFor(t, p, st, m, threads)} {
					for _, cap := range []int{Unlimited, 1500, 100, 7, 1} {
						tag := fmt.Sprintf("%s/store=%v/t%d/opt=%d/cap%d", p.Name, st != nil, threads, res.ArraysOptimized, cap)
						sameAsOracle(t, tag, p, res, m, st, Options{Threads: threads, MaxAccessesPerThread: cap})
					}
				}
			}
		}
	}
}

// TestCompiledMatchesOracleNonLoopVariable: a subscript or bound naming a
// variable that is no loop of the nest reads it as zero, and so does a
// bound naming its own or a deeper loop's variable. Such a program does not
// validate, so the variables are spliced in after the layout pass.
func TestCompiledMatchesOracleNonLoopVariable(t *testing.T) {
	m := diffSchemes[0].machine()
	p := ir.MustParse(`
program stray
array A[64][64]
array B[64][64]
parfor i = 0 .. 64 {
  for j = 0 .. 64 {
    A[i][j] = B[j][i] + A[i][j]
  }
}
`)
	res := optimizeFor(t, p, nil, m, 0)
	nest := p.Nests[0]
	st := nest.Body[0]
	st.Reads[0].Subs[1] = st.Reads[0].Subs[1].Plus(ir.Term(3, "n", 0))
	st.Write.Subs[0] = st.Write.Subs[0].Plus(ir.Term(-2, "j", 0)).Plus(ir.Term(5, "q", 1))
	nest.Loops[1].Upper = nest.Loops[1].Upper.Plus(ir.Term(1, "n", 0)).Plus(ir.Term(2, "j", 0))
	nest.Loops[1].Lower = nest.Loops[1].Lower.Plus(ir.Term(1, "j", 0))
	nest.Loops[0].Upper = nest.Loops[0].Upper.Plus(ir.Term(1, "j", 0))
	for _, r := range []*layout.Result{identityFor(p), res} {
		for _, cap := range []int{Unlimited, 100} {
			sameAsOracle(t, fmt.Sprintf("stray/opt=%d/cap%d", r.ArraysOptimized, cap), p, r, m, nil,
				Options{MaxAccessesPerThread: cap})
		}
	}
}
