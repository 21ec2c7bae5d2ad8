package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"syscall"
)

// unitSpec names one unit: which workload and seed, whether it is traced,
// its index, and whether it is the main unit or the solo twin of tenant
// Run (tenants-4's correctness check).
type unitSpec struct {
	Workload workload
	Seed     uint64
	Traced   bool
	Run      int
	Solo     bool
	Out      string
}

// finisher ends a launched unit whose measured part is done and returns
// its result with the process's peak RSS: with waitClose it blocks until
// the unit has closed (CloseS, CloseErr and the Close span are then
// filled in), without it the process is killed — its work is done, and
// Close can block for seconds (README.md, "Findings"). A second call is
// a no-op returning the same result.
type finisher func(waitClose bool) (*unitResult, error)

// launcher starts a unit and returns once its measured part is done.
type launcher func(spec unitSpec) (finisher, error)

// rssMB is a finished or running process's high-water resident set.
func rssMB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) / 1024 } // Linux reports KiB

// runUnit executes the unit in this process, up to Close.
func runUnit(spec unitSpec) (*unitResult, func(), error) {
	w := spec.Workload
	if spec.Solo {
		// A tenant's spec as a solo core run: seed offset by the tenant
		// index, no daemon.
		w.Tenants = 0
		return runCoreUnit(w, spec.Seed+uint64(spec.Run), spec.Traced, -1-spec.Run)
	}
	if w.Tenants > 0 {
		// The daemon's lifetime, drain included, is inside the unit.
		u, err := runTenantsUnit(w, spec.Seed, spec.Traced, spec.Run, spec.Out)
		return u, func() {}, err
	}
	return runCoreUnit(w, spec.Seed, spec.Traced, spec.Run)
}

// launchInProcess runs the unit on the caller's goroutine and closes it
// at once — the launcher of the package's own tests.
func launchInProcess(spec unitSpec) (finisher, error) {
	u, closeFn, err := runUnit(spec)
	if err != nil {
		return nil, err
	}
	closeFn()
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	u.PeakRSSMB = rssMB(&ru)
	return func(bool) (*unitResult, error) { return u, nil }, nil
}

// launchProcess runs the unit in a fresh child process of this binary,
// so every unit starts from the same heap, GC and scheduler-pool state
// and reports a peak RSS of its own. The child prints its result when
// the measured part is done and again after Close; the next unit can
// start in between, while this one waits on its listeners.
func launchProcess(spec unitSpec) (finisher, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-unit", string(arg))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	lines := bufio.NewReader(stdout)
	readResult := func() (*unitResult, error) {
		line, err := lines.ReadBytes('\n')
		if err != nil {
			return nil, fmt.Errorf("unit process ended early: %w", err)
		}
		var u unitResult
		if err := json.Unmarshal(line, &u); err != nil {
			return nil, fmt.Errorf("unit process result: %w", err)
		}
		return &u, nil
	}
	first, err := readResult()
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, err
	}
	result, done := first, false
	return func(waitClose bool) (*unitResult, error) {
		if done {
			return result, nil
		}
		done = true
		var err error
		if waitClose {
			result, err = readResult()
		} else {
			_ = cmd.Process.Kill()
		}
		werr := cmd.Wait()
		if waitClose && err == nil {
			err = werr
		}
		if err != nil {
			return nil, err
		}
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			result.PeakRSSMB = rssMB(ru)
		}
		return result, nil
	}, nil
}

// unitMain is the child side of launchProcess.
func unitMain(arg string) error {
	var spec unitSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		return fmt.Errorf("-unit: %w", err)
	}
	u, closeFn, err := runUnit(spec)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(u); err != nil {
		return err
	}
	closeFn()
	return enc.Encode(u)
}
