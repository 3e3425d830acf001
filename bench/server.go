package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// requestTimeout bounds every request the generator sends. A request
// that hits it counts as failed.
const requestTimeout = 10 * time.Second

// readyTimeout is how long a freshly started server may take to answer
// /readyz before the run is abandoned.
const readyTimeout = 60 * time.Second

// cleanup collects what must be undone however the process ends:
// server process groups to kill and temporary directories to remove.
var cleanup struct {
	sync.Mutex
	fns []func()
}

func onExit(fn func()) {
	cleanup.Lock()
	cleanup.fns = append(cleanup.fns, fn)
	cleanup.Unlock()
}

func runCleanup() {
	cleanup.Lock()
	fns := cleanup.fns
	cleanup.fns = nil
	cleanup.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// cleanupOnSignal makes SIGINT and SIGTERM leave nothing behind.
func cleanupOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		runCleanup()
		os.Exit(130)
	}()
}

// settleDisk makes the kernel finish, now, the disk work that deleting
// and writing files has queued: on a file system mounted with discard
// every freed block is trimmed at the next journal commit, and that
// work otherwise lands seconds later in whatever phase is being timed
// then. It is called between phases, never inside one.
func settleDisk() { syscall.Sync() }

// fileSizes maps every regular file under dir to its size.
func fileSizes(dir string) map[string]int64 {
	out := map[string]int64{}
	_ = filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				out[path] = info.Size()
			}
		}
		return nil
	})
	return out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	for _, size := range fileSizes(dir) {
		n += size
	}
	return n
}

// newBytes sums the sizes of the files in after that before lacks.
func newBytes(before, after map[string]int64) int64 {
	var n int64
	for name, size := range after {
		if _, old := before[name]; !old {
			n += size
		}
	}
	return n
}

// buildServer compiles cmd/pghive from the checkout at root into dir,
// once per process.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "pghive")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pghive")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cmd/pghive in %s: %v\n%s", root, err, out)
	}
	return bin, nil
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before the server binds it; nothing else on a benchmark box
// races for it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// server is one running `pghive serve` process.
type server struct {
	cmd     *exec.Cmd
	url     string
	logPath string
	exited  chan struct{} // closed when the process has been reaped
	waitErr error
}

// startServer execs the server on a fresh port over dataDir and waits
// for /readyz. It passes exactly the flags the benchmark's contract
// with the program names, and nothing else.
func startServer(bin, dataDir, logPath string, seed int64) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("pick a port: %w", err)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, "serve", "-listen", addr, "-data-dir", dataDir,
		"-compact-interval", "1h", "-seed", strconv.FormatInt(seed, 10))
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, url: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	onExit(s.kill)
	if err := s.waitReady(); err != nil {
		s.kill()
		return nil, fmt.Errorf("%w\n--- tail of %s ---\n%s", err, logPath, s.logTail(20))
	}
	return s, nil
}

// waitReady polls /readyz until it answers 200, the process dies, or
// readyTimeout passes.
func (s *server) waitReady() error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("server exited before it was ready: %v", s.waitErr)
		default:
		}
		resp, err := hc.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("server at %s did not answer /readyz within %v", s.url, readyTimeout)
}

// kill sends SIGKILL to the server's process group and waits until the
// process has been reaped. Safe to call twice.
func (s *server) kill() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL) // ESRCH if it died by itself
	<-s.exited
}

func (s *server) logTail(lines int) string {
	data, err := os.ReadFile(s.logPath)
	if err != nil {
		return err.Error()
	}
	all := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(all) > lines {
		all = all[len(all)-lines:]
	}
	return strings.Join(all, "\n")
}

// peakRSSMiB reads the process's high-water resident set from /proc.
func (s *server) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// cpuSeconds reads the process's user+system CPU time from /proc.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name sits in parentheses and may hold spaces; the
	// numbered fields start after the last ')'.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	const clockTick = 100 // USER_HZ; fixed at 100 on Linux
	return (utime + stime) / clockTick, nil
}

// conn is one keep-alive connection to the server: its transport never
// opens a second one, so requests sent through it queue behind each
// other exactly as they would for one client.
type conn struct {
	hc  *http.Client
	url string
}

func newConn(url string) *conn {
	return &conn{url: url, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute,
	}}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the whole response body. Any status
// but 200 is an error.
func (c *conn) do(method, path string, body []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{code: resp.StatusCode, body: string(data)}
	}
	return data, nil
}

type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("status %d: %s", e.code, strings.TrimSpace(e.body))
}
