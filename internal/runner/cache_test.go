package runner

// Differential no-change guarantee for the trace cache: attaching a Cache
// must not move a single byte of any outcome or job ID, so every recorded
// figure and replay handle stays valid.

import (
	"bytes"
	"testing"

	"offchip/internal/tracecache"
)

// TestCacheDoesNotChangeOutcomes runs the heterogeneous sweep twice — cold,
// then with a shared in-process cache — and demands byte-identical canonical
// outcomes, plus evidence the cache was actually exercised.
func TestCacheDoesNotChangeOutcomes(t *testing.T) {
	// The heterogeneous sweep plus seed variants: the jitter seed is not a
	// trace input, so reseeded jobs must share cached streams.
	specs := append(testSpecs(),
		JobSpec{Mode: ModeCompare, App: "apsi", Cap: 100, Seed: 7},
		JobSpec{Mode: ModeBaseline, App: "gafort", Cap: 100, Seed: 9},
	)
	plain, err := Run(specs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.FirstError(); err != nil {
		t.Fatal(err)
	}
	cache, err := tracecache.New("")
	if err != nil {
		t.Fatal(err)
	}
	cached := make([]JobSpec, len(specs))
	for i, s := range specs {
		s.Cache = cache
		cached[i] = s
	}
	withCache, err := Run(cached, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := withCache.FirstError(); err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if got, want := cached[i].ID(), specs[i].ID(); got != want {
			t.Errorf("cache changed job ID: %s != %s", got, want)
		}
		a, err := plain.Outcomes[i].CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		b, err := withCache.Outcomes[i].CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("job %s: cached outcome differs from uncached\nplain:  %s\ncached: %s",
				specs[i].ID(), a, b)
		}
	}
	st := cache.Stats()
	if st.Misses == 0 {
		t.Error("cache saw no generation at all")
	}
	// The sweep shares keys across jobs (two compare jobs on apsi/default,
	// and every compare's baseline stream doubles as its optimal input), so
	// there must be real sharing, not just pass-through.
	if st.Hits == 0 {
		t.Errorf("cache saw no hits across the sweep: %+v", st)
	}
}
