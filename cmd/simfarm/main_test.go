package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"

	"stackedsim/internal/farm"
)

// simfarm runs the command in-process and returns its exit code and
// streams.
func simfarm(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestUsageErrors pins the usage leg: a command line that names nothing
// runnable exits 2 with its reason and the usage text on stderr, nothing
// on stdout, and a flag the subcommand does not define is exit 2 too
// (the flag package exited the process there before).
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"", ""},
		{"bogus", "simfarm: unknown subcommand \"bogus\"\n"},
		{"worker", "simfarm: worker needs -coordinator HOST:PORT\n"},
		{"worker -name w1", "simfarm: worker needs -coordinator HOST:PORT\n"},
		{"status", "simfarm: status needs -coordinator HOST:PORT\n"},
	} {
		code, out, errs := simfarm(strings.Fields(c.args)...)
		if code != 2 || errs != c.want+usageText || out != "" {
			t.Errorf("simfarm %s:\n exit %d stderr %q stdout %q\n want exit 2 stderr %q", c.args, code, errs, out, c.want+usageText)
		}
	}
	if code, _, errs := simfarm("status", "-no-such-flag"); code != 2 || !strings.Contains(errs, "flag provided but not defined") {
		t.Errorf("unknown flag: exit %d stderr %q", code, errs)
	}
	if code, _, errs := simfarm("coordinator", "-h"); code != 0 || !strings.Contains(errs, "Usage of simfarm coordinator:") {
		t.Errorf("-h: exit %d stderr %q", code, errs)
	}
}

// TestStatusPrintsThePool drives `status` against a coordinator served by
// httptest: the pool summary arrives as indented JSON on stdout, and a
// job the coordinator does not know is a runtime failure (exit 1).
func TestStatusPrintsThePool(t *testing.T) {
	coord := farm.NewCoordinator(farm.Params{})
	srv := httptest.NewServer(coord.Handler())
	code, out, errs := simfarm("status", "-coordinator", srv.URL)
	var st farm.Status
	if code != 0 || json.Unmarshal([]byte(out), &st) != nil || !strings.Contains(out, "\n  \"jobs_queued\": 0,\n") {
		t.Errorf("status: exit %d stderr %q stdout:\n%s", code, errs, out)
	}
	if code, _, errs := simfarm("status", "-coordinator", srv.URL, "-id", "nosuchjob"); code != 1 || !strings.HasPrefix(errs, "simfarm: ") {
		t.Errorf("status -id nosuchjob: exit %d stderr %q, want exit 1", code, errs)
	}
	srv.Close()
}

// TestCoordinatorServesAndDrains starts a coordinator on a free port,
// reads the address off its first line, asks it for /farm/status over
// HTTP, and interrupts it: it prints that it drained and exits 0.
func TestCoordinatorServesAndDrains(t *testing.T) {
	pr, pw := io.Pipe()
	exit := make(chan int, 1)
	var errb bytes.Buffer
	go func() {
		exit <- run([]string{"coordinator", "-addr", "127.0.0.1:0"}, pw, &errb)
		pw.Close()
	}()
	lines := bufio.NewScanner(pr)
	if !lines.Scan() || !strings.HasPrefix(lines.Text(), "simfarm coordinator: serving on 127.0.0.1:") {
		t.Fatalf("first line %q (exit %d, stderr %q)", lines.Text(), <-exit, errb.String())
	}
	addr := strings.TrimPrefix(lines.Text(), "simfarm coordinator: serving on ")
	resp, err := http.Get("http://" + addr + "/farm/status")
	if err != nil {
		t.Fatal(err)
	}
	var st farm.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("/farm/status: %d, %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	// The coordinator registered for the signal before it printed its
	// address, so this reaches its context and not the test binary.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if !lines.Scan() || lines.Text() != "simfarm coordinator: drained" {
		t.Errorf("after SIGINT: %q", lines.Text())
	}
	if code := <-exit; code != 0 || errb.Len() != 0 {
		t.Errorf("exit %d stderr %q, want a clean drain", code, errb.String())
	}
}
