package experiments

import (
	"fmt"

	"offchip/internal/runner"
)

// Request is a declarative sweep: applications × layout schemes, expanded
// into canonical job IDs. It is the JSON body a sweep client POSTs to the
// sweep service's /submit endpoint, and the shape cmd/offchip -submit
// builds from its flags — the service side never invents job parameters,
// it only expands and canonicalizes.
type Request struct {
	// Apps restricts the suite (nil: all 13 applications).
	Apps []string `json:"apps,omitempty"`
	// Schemes names the layout schemes to cross with the apps (nil: all of
	// SchemeNames). Unknown names are errors, not silently dropped.
	Schemes []string `json:"schemes,omitempty"`
	// Cap shortens traces (MaxAccessesPerThread; 0: full traces).
	Cap int `json:"cap,omitempty"`
	// Seed decorrelates the jitter streams (0: the historical stream).
	Seed uint64 `json:"seed,omitempty"`
}

// SchemeNames lists the layout schemes a Request may name, in expansion
// order.
func SchemeNames() []string {
	names := make([]string, len(sweepSchemes))
	for i, s := range sweepSchemes {
		names[i] = s.Name
	}
	return names
}

// Expand enumerates the request's job specs app-major (apps in the paper's
// listing order, schemes in SchemeNames order) — the same deterministic
// enumeration ExampleSweep uses, so a request's job list and IDs are stable
// across processes and machines.
func (r Request) Expand() ([]runner.JobSpec, error) {
	cfg := Config{
		Apps:                 r.Apps,
		MaxAccessesPerThread: r.Cap,
		Seed:                 r.Seed,
	}
	apps, err := cfg.apps()
	if err != nil {
		return nil, err
	}
	schemes := r.Schemes
	if len(schemes) == 0 {
		schemes = SchemeNames()
	}
	setters := make([]func(*runner.JobSpec), len(schemes))
	for i, name := range schemes {
		found := false
		for _, s := range sweepSchemes {
			if s.Name == name {
				setters[i] = s.Set
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("experiments: unknown scheme %q (have %v)", name, SchemeNames())
		}
	}
	var specs []runner.JobSpec
	for _, app := range apps {
		for i := range schemes {
			s := cfg.spec(runner.ModeCompare, app.Name)
			setters[i](&s)
			specs = append(specs, s)
		}
	}
	return specs, nil
}
