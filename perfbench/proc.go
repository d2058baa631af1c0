package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// prSetChildSubreaper is prctl's PR_SET_CHILD_SUBREAPER (linux/prctl.h).
const prSetChildSubreaper = 36

// orphanGrace bounds how long processes a run left behind may keep running
// after the process the benchmark started has exited; survivors are killed.
const orphanGrace = 30 * time.Second

// procTimeout bounds one process run; the process group is killed after it.
const procTimeout = 150 * time.Second

// measuredProcs is the GOMAXPROCS every measured rdfind process runs with,
// cluster workers included, and that in-process traced runs and closed-loop
// serving windows use. On a host whose few vCPUs are shared, work that needs
// two of them at once waits on whichever the host slows down: the wall time
// of identical two-thread runs swung by half, of one-thread runs by about a
// tenth.
const measuredProcs = 1

// measuredEnv returns this process's environment with TMPDIR set to tmp and
// GOMAXPROCS to measuredProcs.
func measuredEnv(tmp string) []string {
	env := []string{"TMPDIR=" + tmp, "GOMAXPROCS=" + strconv.Itoa(measuredProcs)}
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "TMPDIR=") && !strings.HasPrefix(kv, "GOMAXPROCS=") {
			env = append(env, kv)
		}
	}
	return env
}

// enableSubreaper makes this process the reaper of every descendant that
// loses its parent: cluster workers the coordinator does not wait for are
// re-parented here, so their CPU time and RSS are counted and the benchmark
// can wait until each has ended.
func enableSubreaper() error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0); errno != 0 {
		return fmt.Errorf("prctl(PR_SET_CHILD_SUBREAPER): %w", errno)
	}
	return nil
}

// procRun accounts one process run and every process it spawned.
type procRun struct {
	wall   time.Duration // spawn to exit of the started process
	cpu    time.Duration // user+system CPU of every process of the run
	maxRSS int64         // bytes; largest max-RSS of any process of the run
	exit   int
	out    string // path of the captured standard output
	// stolen is the share of the host's busy vCPU time during the run that
	// the hypervisor took away (see stolenShare).
	stolen float64
}

// activeWall is the run's wall time less the share the hypervisor stole:
// how long the run took on vCPUs that ran whenever it was runnable.
func (r procRun) activeWall() time.Duration {
	return time.Duration(float64(r.wall) * (1 - r.stolen))
}

// cpuTicks is a reading of the host's aggregate CPU time counters, in
// clock ticks: busy is every non-idle state including steal, steal the time
// a vCPU was ready but the hypervisor ran something else.
type cpuTicks struct{ busy, steal int64 }

// readCPUTicks reads the aggregate "cpu" line of /proc/stat; zero when it
// cannot be read, which makes stolenShare report no steal.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]int64 // user nice system idle iowait irq softirq steal
	for i := range v {
		v[i], _ = strconv.ParseInt(f[i+1], 10, 64)
	}
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6] + v[7], steal: v[7]}
}

// stolenShare is the fraction of busy vCPU time between two readings that
// was stolen. On a shared host the hypervisor's other guests take whole
// stretches of it, during which every runnable thread of this machine
// stands still: wall times measured through such a stretch grow with the
// neighbours' load, not with the program's work. On a dedicated machine
// the share is 0.
func stolenShare(a, b cpuTicks) float64 {
	busy := b.busy - a.busy
	if busy <= 0 || b.steal < a.steal {
		return 0
	}
	return min(float64(b.steal-a.steal)/float64(busy), 1)
}

// runProc starts bin in dir with stdout captured to outPath and stderr to
// errPath, waits for it, then reaps and accounts every process it left
// behind. The started process leads its own process group, which is killed
// if it overruns procTimeout.
func runProc(dir, outPath, errPath, bin string, args ...string) (procRun, error) {
	run := procRun{out: outPath}
	out, err := os.Create(outPath)
	if err != nil {
		return run, err
	}
	defer out.Close()
	errf, err := os.Create(errPath)
	if err != nil {
		return run, err
	}
	defer errf.Close()
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		return run, err
	}
	defer devnull.Close()
	tmp := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return run, err
	}
	// A relative TMPDIR keeps the coordinator's unix socket path short and
	// inside the run directory; workers inherit the same cwd and environment.
	attr := &syscall.ProcAttr{
		Dir:   dir,
		Env:   measuredEnv("tmp"),
		Files: []uintptr{devnull.Fd(), out.Fd(), errf.Fd()},
		Sys:   &syscall.SysProcAttr{Setpgid: true},
	}
	ticks := readCPUTicks()
	start := time.Now()
	pid, err := syscall.ForkExec(bin, append([]string{bin}, args...), attr)
	if err != nil {
		return run, fmt.Errorf("start %s: %w", bin, err)
	}
	killer := time.AfterFunc(procTimeout, func() { _ = syscall.Kill(-pid, syscall.SIGKILL) })
	var ws syscall.WaitStatus
	var ru syscall.Rusage
	for {
		_, err = syscall.Wait4(pid, &ws, 0, &ru)
		if !errors.Is(err, syscall.EINTR) {
			break
		}
	}
	run.wall = time.Since(start)
	run.stolen = stolenShare(ticks, readCPUTicks())
	killer.Stop()
	if err != nil {
		return run, fmt.Errorf("wait %s: %w", bin, err)
	}
	run.exit = ws.ExitStatus()
	if ws.Signaled() {
		run.exit = 128 + int(ws.Signal())
	}
	run.add(&ru)
	run.reapOrphans(func() { _ = syscall.Kill(-pid, syscall.SIGKILL) })
	return run, nil
}

// add folds one reaped process's resource usage into the run. Linux reports
// a reaped process's usage together with that of the children it waited for.
func (r *procRun) add(ru *syscall.Rusage) {
	r.cpu += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	r.maxRSS = max(r.maxRSS, ru.Maxrss*1024)
}

// reapOrphans waits for every remaining child of this process, the
// descendants of the run that were re-parented here, accounting each. After
// orphanGrace the survivors are killed with kill.
func (r *procRun) reapOrphans(kill func()) {
	deadline := time.Now().Add(orphanGrace)
	killed := false
	for {
		var ws syscall.WaitStatus
		var ru syscall.Rusage
		wpid, err := syscall.Wait4(-1, &ws, syscall.WNOHANG, &ru)
		switch {
		case errors.Is(err, syscall.EINTR):
			continue
		case err != nil: // ECHILD: nothing left
			return
		case wpid > 0:
			r.add(&ru)
			continue
		}
		if time.Now().After(deadline) {
			if killed {
				logf("left-over processes survived SIGKILL")
				return
			}
			logf("killing left-over processes")
			kill()
			killed, deadline = true, time.Now().Add(10*time.Second)
		}
		time.Sleep(time.Millisecond)
	}
}
