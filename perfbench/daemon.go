package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat
// (100 on every mainstream Linux build).
const clockTicks = 100

// daemon is one thirstyflopsd subprocess on a loopback port the harness
// picked itself (the daemon logs only its -addr flag).
type daemon struct {
	cmd      *exec.Cmd
	base     string // http://127.0.0.1:port
	udpAddr  string // set when the workload feeds UDP
	stateDir string
	log      bytes.Buffer
	exited   chan error
}

// freePort binds an ephemeral loopback port and releases it for the
// daemon to take.
func freePort(network string) (int, error) {
	switch network {
	case "udp":
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer c.Close()
		return c.LocalAddr().(*net.UDPAddr).Port, nil
	default:
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer l.Close()
		return l.Addr().(*net.TCPAddr).Port, nil
	}
}

// startDaemon spawns bin with flags and waits until GET /livez answers
// 200. stateParent, when set, gets a fresh -state-dir under it that
// stop removes. withUDP adds a -udp-addr on another free port.
func startDaemon(bin string, flags []string, stateParent string, withUDP bool) (*daemon, error) {
	port, err := freePort("tcp")
	if err != nil {
		return nil, err
	}
	d := &daemon{base: fmt.Sprintf("http://127.0.0.1:%d", port), exited: make(chan error, 1)}
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, flags...)
	if withUDP {
		up, err := freePort("udp")
		if err != nil {
			return nil, err
		}
		d.udpAddr = fmt.Sprintf("127.0.0.1:%d", up)
		args = append(args, "-udp-addr", d.udpAddr)
	}
	if stateParent != "" {
		dir, err := os.MkdirTemp(stateParent, "state-")
		if err != nil {
			return nil, err
		}
		d.stateDir = dir
		args = append(args, "-state-dir", dir)
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = &d.log
	d.cmd.Stderr = &d.log
	// If the benchmark itself dies, the kernel takes the daemon with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		d.cleanup()
		return nil, err
	}
	go func() { d.exited <- d.cmd.Wait() }()
	if err := d.waitReady(30 * time.Second); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitReady(limit time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exited:
			d.exited <- err
			return fmt.Errorf("daemon exited during start-up: %v\n%s", err, d.log.String())
		default:
		}
		resp, err := c.Get(d.base + "/livez")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("daemon not ready on %s after %v", d.base, limit)
}

// cpuTime is the daemon's user+sys CPU so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS reads VmHWM (the resident-set high-water mark) in MiB.
func (d *daemon) peakRSS() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// stop sends SIGTERM and waits for a clean exit; an unclean or late exit
// is an error (the run fails). The state directory is removed either way.
func (d *daemon) stop() error {
	defer d.cleanup()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal daemon: %w", err)
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return fmt.Errorf("daemon exited uncleanly: %v\n%s", err, d.log.String())
		}
		return nil
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("daemon did not exit within 20s of SIGTERM")
	}
}

// kill is the error-path teardown.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	d.cleanup()
}

func (d *daemon) cleanup() {
	if d.stateDir != "" {
		os.RemoveAll(d.stateDir)
		d.stateDir = ""
	}
}

// buildDir is where binaries, scratch state and span dumps go: inside
// the checkout, and ignored by git.
func buildDir() string {
	if d := os.Getenv("PERFBENCH_DIR"); d != "" {
		return d
	}
	return filepath.Join(".bench_build", "perfbench")
}
