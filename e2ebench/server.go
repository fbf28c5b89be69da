package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"neurdb/client"
)

// serverProc is one neurdb-server child process serving a durable data
// directory on an ephemeral loopback port.
type serverProc struct {
	cmd     *exec.Cmd
	addr    string
	stderrD chan struct{} // closed once the stderr reader has hit EOF
	exited  bool
}

// startServer launches bin on dataDir with commit-synchronous WAL and the
// server's default checkpoint flags, and returns once it is listening.
func startServer(bin, dataDir string) (*serverProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dataDir, "-wal-sync=commit")
	// The server must not outlive the benchmark, even if the benchmark dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, stderrD: make(chan struct{})}
	addrc := make(chan string, 1)
	go p.readStderr(stderr, addrc)
	select {
	case p.addr = <-addrc:
	case <-p.stderrD:
		p.wait()
		return nil, fmt.Errorf("neurdb-server exited before listening")
	case <-time.After(120 * time.Second):
		p.kill()
		return nil, fmt.Errorf("neurdb-server did not listen within 120s")
	}
	return p, nil
}

// readStderr forwards the server's log to our stderr and reports the
// listen address from its "listening on" line.
func (p *serverProc) readStderr(r io.Reader, addrc chan<- string) {
	defer close(p.stderrD)
	sc := bufio.NewScanner(r)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 && !sent {
			f := strings.Fields(line[i+len("listening on "):])
			if len(f) > 0 {
				addrc <- f[0]
				sent = true
			}
		}
		fmt.Fprintln(os.Stderr, "server:", line)
	}
	io.Copy(io.Discard, r)
}

// wait reaps the process after its stderr has closed.
func (p *serverProc) wait() {
	if p.exited {
		return
	}
	<-p.stderrD
	p.cmd.Wait()
	p.exited = true
}

// stop shuts the server down gracefully and waits for it to exit. A nil
// server (a failed restart) has nothing to stop.
func (p *serverProc) stop() {
	if p == nil || p.exited {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { p.wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

// kill SIGKILLs the server (a crash) and waits for it to exit.
func (p *serverProc) kill() {
	if p.exited {
		return
	}
	p.cmd.Process.Kill()
	p.wait()
}

// peakRSSMiB reads the server's VmHWM from /proc.
func (p *serverProc) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not in /proc status")
}

// connect opens a client connection to the server.
func (p *serverProc) connect() (*client.Conn, error) {
	return client.ConnectOptions(p.addr, client.Options{DialTimeout: 10 * time.Second})
}

// timedSetup starts a server on a fresh data directory, runs load against
// it, and returns the server with the seconds from launch to loaded. It
// repeats this reps times and keeps only the last server, so the reported
// set-up time is a median over reps fresh set-ups.
func timedSetup(bin, dataDir string, reps int, load func(p *serverProc) error) (*serverProc, float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		p, err := startServer(bin, dataDir)
		if err != nil {
			return nil, 0, err
		}
		if err := load(p); err != nil {
			p.stop()
			return nil, 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i == reps-1 {
			return p, median(secs), nil
		}
		p.stop()
	}
	return nil, 0, errors.New("no set-up repetitions")
}

// crashRestart SIGKILLs p, restarts the server on the same directory and
// times until probe (the first query) answers, reps times over. It returns
// the last server, the median restart time and every restart time.
func crashRestart(p *serverProc, bin, dataDir string, reps int, probe func(c *client.Conn) error) (*serverProc, float64, []float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		p.kill()
		t0 := time.Now()
		np, err := startServer(bin, dataDir)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("restart: %w", err)
		}
		if err := probeOnce(np, probe); err != nil {
			np.stop()
			return nil, 0, nil, fmt.Errorf("restart probe: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		p = np
	}
	return p, median(append([]float64(nil), secs...)), secs, nil
}

func probeOnce(p *serverProc, probe func(c *client.Conn) error) error {
	c, err := p.connect()
	if err != nil {
		return err
	}
	defer c.Close()
	return probe(c)
}
