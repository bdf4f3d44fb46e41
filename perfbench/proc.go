package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// childTimeout bounds any single child process, so a wedged program
// cannot hold the benchmark past its own time limit.
const childTimeout = 120 * time.Second

// maxRSSMB is a finished child's peak resident set in MB.
func maxRSSMB(ps *os.ProcessState) float64 {
	if ps == nil {
		return 0
	}
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// batchRun is one finished batch child: its output and what it cost.
type batchRun struct {
	out       []byte
	firstByte time.Duration // exec to the first byte of standard output
	wall      time.Duration // exec to exit
	rssMB     float64
}

// runBatch executes a program to completion, timing its first output
// byte and its exit, and returns its standard output.
func runBatch(env []string, path string, args ...string) (batchRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, path, args...)
	cmd.Env = append(os.Environ(), env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return batchRun{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return batchRun{}, err
	}
	var res batchRun
	buf := make([]byte, 64<<10)
	n, rerr := stdout.Read(buf)
	res.firstByte = time.Since(start)
	res.out = append(res.out, buf[:n]...)
	if rerr == nil {
		rest, err := io.ReadAll(stdout)
		res.out = append(res.out, rest...)
		rerr = err
	}
	werr := cmd.Wait()
	res.wall = time.Since(start)
	res.rssMB = maxRSSMB(cmd.ProcessState)
	if werr != nil {
		return res, fmt.Errorf("%s %s: %v: %s", filepath.Base(path), strings.Join(args, " "), werr, lastLines(stderr.String(), 5))
	}
	if rerr != nil && !errors.Is(rerr, io.EOF) {
		return res, rerr
	}
	return res, nil
}

// lastLines returns the final n lines of s, for error messages.
func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// daemon is a running cmd/iotcollect -serve child.
type daemon struct {
	cmd      *exec.Cmd
	cancel   context.CancelFunc
	start    time.Time
	httpAddr string
	feedAddr string
	client   *http.Client
	exited   chan struct{} // closed once Wait has returned

	mu   sync.Mutex
	logs bytes.Buffer
}

// startDaemon executes iotcollect with args and waits until it has logged
// the addresses it listens on.
func startDaemon(bin string, args ...string) (*daemon, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	cmd := exec.CommandContext(ctx, filepath.Join(bin, "iotcollect"), args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		cancel()
		return nil, err
	}
	d := &daemon{cmd: cmd, cancel: cancel, exited: make(chan struct{}), client: newClient()}
	d.start = time.Now()
	if err := cmd.Start(); err != nil {
		cancel()
		return nil, err
	}
	addrs := make(chan [2]string, 1)
	go func() {
		var httpAddr, feedAddr string
		sent := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.logs.WriteString(line + "\n")
			d.mu.Unlock()
			if a, ok := addrAfter(line, "accepting exporter streams on "); ok {
				feedAddr = a
			}
			if a, ok := addrAfter(line, "serving HTTP API on "); ok {
				httpAddr = a
			}
			if !sent && httpAddr != "" && feedAddr != "" {
				addrs <- [2]string{httpAddr, feedAddr}
				sent = true
			}
		}
		cmd.Wait() //nolint:errcheck // a killed daemon exits non-zero by design
		close(d.exited)
		if !sent {
			close(addrs)
		}
	}()
	select {
	case a, ok := <-addrs:
		if !ok {
			return nil, fmt.Errorf("iotcollect exited before listening: %s", lastLines(d.log(), 5))
		}
		d.httpAddr, d.feedAddr = a[0], a[1]
		return d, nil
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("iotcollect did not log its listen addresses within 60s")
	}
}

// addrAfter extracts the address logged after marker on a log line.
func addrAfter(line, marker string) (string, bool) {
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	f := strings.Fields(line[i+len(marker):])
	if len(f) == 0 {
		return "", false
	}
	return f[0], true
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.logs.String()
}

// newClient is the generator's HTTP side: one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			DialContext:         (&net.Dialer{Timeout: 10 * time.Second}).DialContext,
		},
	}
}

// url is the daemon's API URL for path.
func (d *daemon) url(path string) string { return "http://" + d.httpAddr + path }

// get issues one GET and returns the body.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.url(path))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// post issues one POST with an empty body and returns the reply body.
func (d *daemon) post(path string) ([]byte, error) {
	resp, err := d.client.Post(d.url(path), "application/json", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("POST %s: %s: %s", path, resp.Status, body)
	}
	return body, nil
}

// waitHealthy polls /healthz until it answers 200 and returns the time
// from exec to that answer.
func (d *daemon) waitHealthy() (time.Duration, error) {
	for {
		if _, err := d.get("/healthz"); err == nil {
			return time.Since(d.start), nil
		}
		select {
		case <-d.exited:
			return 0, fmt.Errorf("iotcollect exited before it was healthy: %s", lastLines(d.log(), 5))
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(d.start) > 60*time.Second {
			return 0, errors.New("iotcollect not healthy within 60s")
		}
	}
}

// kill stops the daemon the way a crash would (SIGKILL, no final
// checkpoint), waits for it, and returns its peak resident set in MB.
func (d *daemon) kill() float64 {
	d.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-d.exited
	d.cancel()
	d.client.CloseIdleConnections()
	return maxRSSMB(d.cmd.ProcessState)
}
