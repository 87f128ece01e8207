package main

import (
	"bytes"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// serveChildEnv marks a re-executed test binary that should run
// `fase serve` with the arguments in serveArgsEnv instead of its tests.
const (
	serveChildEnv = "FASE_TEST_SERVE_CHILD"
	serveArgsEnv  = "FASE_TEST_SERVE_ARGS"
)

// TestServeEarlySIGTERMDrains signals `fase serve` the moment it answers
// its first request and requires the graceful drain every time: exit
// status 0 and the shutdown summary. The parent polls /v1/stats from the
// moment the child starts, so the signal lands as early as a client can
// see the server up.
func TestServeEarlySIGTERMDrains(t *testing.T) {
	if os.Getenv(serveChildEnv) == "1" {
		os.Exit(runServe(strings.Fields(os.Getenv(serveArgsEnv))))
	}
	if runtime.GOOS == "windows" {
		t.Skip("SIGTERM delivery needs a Unix process model")
	}
	const iterations = 20
	for it := 0; it < iterations; it++ {
		addr := freeAddr(t)
		cmd := exec.Command(os.Args[0], "-test.run=^TestServeEarlySIGTERMDrains$")
		cmd.Env = append(os.Environ(), serveChildEnv+"=1",
			serveArgsEnv+"=-addr "+addr+" -workers 1 -runs-dir "+t.TempDir())
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		if !awaitStats(addr, 10*time.Second) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("iteration %d: server never answered /v1/stats:\n%s", it, out.String())
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("iteration %d: serve ended with %v, want exit 0:\n%s", it, err, out.String())
		}
		if !strings.Contains(out.String(), "serve: done") {
			t.Fatalf("iteration %d: no shutdown summary:\n%s", it, out.String())
		}
	}
}

// freeAddr returns a loopback address with a port that was free a moment
// ago, so the parent knows where to poll before the child is up.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// awaitStats polls addr's /v1/stats until it answers 200 or the timeout
// passes.
func awaitStats(addr string, timeout time.Duration) bool {
	client := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); {
		resp, err := client.Get("http://" + addr + "/v1/stats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return true
			}
		}
	}
	return false
}
