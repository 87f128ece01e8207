package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procStats is what one child process cost, read from the kernel's
// accounting for the child (wait4 rusage) rather than from any timer
// inside the program.
type procStats struct {
	Due       time.Time     // when the harness meant to spawn it
	Spawn     time.Time     // when Start returned
	Wall      time.Duration // spawn to exit
	Setup     time.Duration // spawn to the ready line (0 if never seen)
	User, Sys time.Duration
	MaxRSSMB  float64
	MinFlt    int64
	Stdout    string
}

func (p procStats) CPU() time.Duration { return p.User + p.Sys }

// rusageOf reads a finished child's resource usage.
func rusageOf(ps *os.ProcessState) (user, sys time.Duration, rssMB float64, minflt int64) {
	user, sys = ps.UserTime(), ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		minflt = ru.Minflt
	}
	return user, sys, rssMB, minflt
}

// child is a started process whose stdout is scanned line by line.
type child struct {
	cmd   *exec.Cmd
	due   time.Time
	spawn time.Time
	ready chan time.Time // receives the time of the first ready line
	// lines carries stdout lines to a caller that parses them; the buffer
	// holds the first lines until that caller starts reading, and lines
	// nobody reads are dropped once it is full.
	lines chan string
	out   bytes.Buffer
	done  chan struct{} // closed when stdout hits EOF
}

// startChild spawns bin with args. ready reports whether a stdout line
// marks the end of set-up; it may be nil. The child is killed if ctx
// ends first, or if the benchmark itself dies.
func startChild(ctx context.Context, due time.Time, bin string, args []string, ready func(string) bool) (*child, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, due: due, ready: make(chan time.Time, 1), lines: make(chan string, 64), done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c.spawn = time.Now()
	go func() {
		defer close(c.done)
		defer close(c.lines)
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		seen := false
		for sc.Scan() {
			line := sc.Text()
			if !seen && ready != nil && ready(line) {
				seen = true
				c.ready <- time.Now()
			}
			c.out.WriteString(line)
			c.out.WriteByte('\n')
			select {
			case c.lines <- line:
			default: // nobody is listening for lines: drop, keep draining
			}
		}
	}()
	return c, nil
}

// wait reaps the child and returns its costs. The caller must not read
// c.lines after wait returns.
func (c *child) wait() (procStats, error) {
	<-c.done
	err := c.cmd.Wait()
	end := time.Now()
	st := procStats{Due: c.due, Spawn: c.spawn, Wall: end.Sub(c.spawn), Stdout: c.out.String()}
	select {
	case t := <-c.ready:
		st.Setup = t.Sub(c.spawn)
	default:
	}
	st.User, st.Sys, st.MaxRSSMB, st.MinFlt = rusageOf(c.cmd.ProcessState)
	if err != nil {
		return st, fmt.Errorf("%s: %w", c.cmd.Path, err)
	}
	return st, nil
}

// runProc runs bin to completion.
func runProc(ctx context.Context, due time.Time, bin string, args []string, ready func(string) bool) (procStats, error) {
	c, err := startChild(ctx, due, bin, args, ready)
	if err != nil {
		return procStats{}, err
	}
	return c.wait()
}

// probeSetup spawns bin, waits for the first stdout line that ready
// accepts, then kills the child and reaps it. It returns the set-up
// time; it is how setup_s gets several samples per run without paying
// for whole scans.
func probeSetup(ctx context.Context, bin string, args []string, ready func(string) bool) (time.Duration, error) {
	c, err := startChild(ctx, time.Now(), bin, args, ready)
	if err != nil {
		return 0, err
	}
	defer func() {
		_ = c.cmd.Process.Kill()
		<-c.done
		_ = c.cmd.Wait()
	}()
	select {
	case t := <-c.ready:
		return t.Sub(c.spawn), nil
	case <-c.done:
		return 0, fmt.Errorf("%s exited before set-up completed", bin)
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// rssMB reads a live process's resident set size from /proc.
func rssMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
