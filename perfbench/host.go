package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"offchip/internal/sweepq"
)

// hostFacts identifies the machine and the code a result was measured on.
type hostFacts struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	SourceHash string  `json:"source_sha256"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func (h hostFacts) String() string {
	b, _ := json.Marshal(h) // a struct of plain fields always marshals
	return string(b)
}

// repoRoot is the repository checkout: the benchmark runs from it, its
// test from the benchmark's own directory.
func repoRoot() string {
	if _, err := os.Stat("internal"); err == nil {
		return "."
	}
	return ".."
}

// gitRev reads the checked-out commit without running git; a checkout
// that is not a git repository reports "none".
func gitRev() string {
	git := filepath.Join(repoRoot(), ".git")
	head, err := os.ReadFile(filepath.Join(git, "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if rev, err := os.ReadFile(filepath.Join(git, ref)); err == nil {
		return strings.TrimSpace(string(rev))
	}
	packed, err := os.ReadFile(filepath.Join(git, "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return "none"
}

// sourceHash digests every Go source and module file of the checkout, so
// a result names the code it measured even where there is no git.
func sourceHash() string {
	root := repoRoot()
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func rusage(who int) syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(who, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// cpuTime is this process's user+sys time so far.
func cpuTime() time.Duration {
	ru := rusage(syscall.RUSAGE_SELF)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfMaxRSS is this process's peak resident set, KiB.
func selfMaxRSS() int64 { return int64(rusage(syscall.RUSAGE_SELF).Maxrss) }

const (
	workerEnv = sweepq.WorkerEnv
	// statsEnv names the directory a fleet worker writes its usage report
	// (and, with profileEnv set, its CPU profile) to when it exits.
	statsEnv   = "PERFBENCH_WORKER_STATS"
	profileEnv = "PERFBENCH_WORKER_PROFILE"
)

type workerReport struct {
	CPUNS     int64  `json:"cpu_ns"`
	MaxRSSKiB int64  `json:"max_rss_kib"`
	Profile   string `json:"profile,omitempty"`
}

// workerMain serves the sweep protocol as a fleet worker of this binary,
// then reports the worker's own usage.
func workerMain() int {
	dir := os.Getenv(statsEnv)
	var rep workerReport
	var pf *os.File
	if dir != "" && os.Getenv(profileEnv) != "" {
		rep.Profile = filepath.Join(dir, fmt.Sprintf("%d.pprof", os.Getpid()))
		f, err := os.Create(rep.Profile)
		if err == nil && pprof.StartCPUProfile(f) == nil {
			pf = f
		} else {
			rep.Profile = ""
		}
	}
	err := sweepq.WorkerMain(os.Stdin, os.Stdout)
	if pf != nil {
		pprof.StopCPUProfile()
		if pf.Close() != nil {
			rep.Profile = ""
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 1
	}
	if dir != "" {
		rep.CPUNS = int64(cpuTime())
		rep.MaxRSSKiB = selfMaxRSS()
		data, _ := json.Marshal(rep) // plain fields always marshal
		path := filepath.Join(dir, fmt.Sprintf("%d.json", os.Getpid()))
		// Write then rename, so the parent never reads a partial report.
		if os.WriteFile(path+".tmp", data, 0o644) != nil || os.Rename(path+".tmp", path) != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker: cannot write usage report")
			return 1
		}
	}
	return 0
}

type workerUsage struct {
	cpu       time.Duration
	maxRSSKiB int64
	profile   string
}

// readWorkerReports collects the reports the fleet's workers wrote.
func readWorkerReports(dir string, wantProfiles bool) ([]workerUsage, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []workerUsage
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rep workerReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("worker report %s: %w", p, err)
		}
		if wantProfiles && rep.Profile == "" {
			return nil, fmt.Errorf("worker report %s names no CPU profile", p)
		}
		out = append(out, workerUsage{time.Duration(rep.CPUNS), rep.MaxRSSKiB, rep.Profile})
	}
	return out, nil
}
