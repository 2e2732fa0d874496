package main

// daemon.go runs gapd as a child process and reads its CPU and memory
// from /proc.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gapbench/internal/serve"
)

// daemon is a gapd child process with its default settings, serving the
// cached graph files on a unix socket.
type daemon struct {
	cmd     *exec.Cmd
	log     bytes.Buffer // stderr; read only after exit
	exited  chan struct{}
	waitErr error
}

// spawnDaemon starts gapd and returns once it answers its first ping, with
// the time from spawn to that answer.
func spawnDaemon(bin, sock string, files []string) (*daemon, time.Duration, error) {
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-listen", "unix:"+sock, "-graphfile", strings.Join(files, ","), "-q")
	d.cmd.Stderr = &d.log
	// Should this process die without stopping the daemon, the kernel
	// stops it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting gapd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	for {
		if resp, err := call(sock, serve.Request{Op: serve.OpPing}); err == nil && resp.Code == serve.CodeOK {
			return d, time.Since(start), nil
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("gapd exited before answering a ping: %v: %s", d.waitErr, d.log.String())
		case <-time.After(200 * time.Microsecond):
		}
		if time.Since(start) > time.Minute {
			_ = d.stop() // the timeout is the error worth reporting
			return nil, 0, fmt.Errorf("gapd did not answer a ping within a minute")
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGTERM and waits for it; a daemon that does
// not exit 0 is an error.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("stopping gapd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill() // the hang is the error worth reporting
		<-d.exited
		return fmt.Errorf("gapd did not drain within 30s: %s", d.log.String())
	}
	if d.waitErr != nil {
		return fmt.Errorf("gapd: %v: %s", d.waitErr, d.log.String())
	}
	return nil
}

// procCPU is a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15, in clock ticks.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	const clockTicks = 100 // USER_HZ, fixed at 100 on Linux
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// procPeakRSSMiB is a process's peak resident set (VmHWM).
func procPeakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}
