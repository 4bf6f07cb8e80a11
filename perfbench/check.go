package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"offchip/internal/runner"
	"offchip/internal/sim"
	"offchip/internal/tracecache"
)

// goldenSeed is the seed golden.json was recorded at. JobSpec.Seed 0 is the
// program's historical jitter stream, the one every figure golden uses.
const goldenSeed = 0

// heldOutSeed is never used while tuning the program or the benchmark; a
// performance claim is confirmed on it last.
const heldOutSeed = 7919

// checker holds the expected digest of every job's canonical output and
// counts the jobs checked against it. A job whose ID is in golden must
// reproduce the recorded digest; any other job must reproduce the digest
// it had the first time this run saw it, whichever pass or executor that
// was.
type checker struct {
	mu        sync.Mutex
	golden    map[string]string
	seen      map[string]string
	attempted int
	failed    int
	log       io.Writer
}

func newChecker(golden map[string]string, log io.Writer) *checker {
	return &checker{golden: golden, seen: map[string]string{}, log: log}
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// job checks one finished job: its error, its canonical output, and any
// extra check (conservation) the caller ran. It reports whether the job
// passed.
func (c *checker) job(id string, canonical []byte, err error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	fail := func(format string, a ...any) bool {
		c.failed++
		if c.failed <= 10 {
			fmt.Fprintf(c.log, "perfbench: FAILED %s: %s\n", id, fmt.Sprintf(format, a...))
		}
		return false
	}
	if err != nil {
		return fail("%v", err)
	}
	d := digest(canonical)
	if want, ok := c.golden[id]; ok {
		if d != want {
			return fail("output digest %.16s differs from golden %.16s", d, want)
		}
		return true
	}
	if want, ok := c.seen[id]; ok {
		if d != want {
			return fail("output digest %.16s differs from this run's earlier %.16s", d, want)
		}
		return true
	}
	c.seen[id] = d
	return true
}

// outcome checks a runner outcome; Run-mode outcomes carry their
// sim.Result, so conservation is checked on them too.
func (c *checker) outcome(o *runner.JobOutcome) bool {
	canon, err := o.CanonicalJSON()
	if err == nil && o.Run != nil {
		err = conserved(o.Run, false)
	}
	return c.job(o.ID, canon, err)
}

// conserved checks the run's conservation identities: every access
// retires, and every request a controller accepted was served. The
// optimal scheme bypasses the controllers, so it submits none.
func conserved(r *sim.Result, optimal bool) error {
	if r.Completed != r.Total {
		return fmt.Errorf("conservation: %d of %d accesses completed", r.Completed, r.Total)
	}
	if !optimal && r.MemSubmitted != r.MemServed {
		return fmt.Errorf("conservation: controllers accepted %d requests, served %d", r.MemSubmitted, r.MemServed)
	}
	return nil
}

func loadGolden(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read golden digests: %w", err)
	}
	var g map[string]string
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return g, nil
}

// recordGolden runs every workload's jobs at the golden seed through
// runner.Run in process, the program's reference executor, and writes the
// digests of their canonical outputs.
func recordGolden(path string) error {
	var specs []runner.JobSpec
	for _, name := range workloadNames {
		specs = append(specs, jobSpecs(name, goldenSeed, fullSize)...)
	}
	// One in-memory trace cache for the whole recording: cached streams
	// are byte-identical to fresh ones, and the mix jobs share their apps.
	cache, err := tracecache.New("")
	if err != nil {
		return err
	}
	for i := range specs {
		specs[i].Cache = cache
	}
	res, err := runner.Run(specs, runner.Options{Workers: procs()})
	if err != nil {
		return err
	}
	g := map[string]string{}
	for _, o := range res.Outcomes {
		canon, err := o.CanonicalJSON()
		if err == nil && o.Run != nil {
			err = conserved(o.Run, false)
		}
		if err != nil {
			return fmt.Errorf("job %s: %w", o.ID, err)
		}
		g[o.ID] = digest(canon)
	}
	// MarshalIndent writes map keys sorted, so the file is stable.
	data, err := json.MarshalIndent(g, "", "\t")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
