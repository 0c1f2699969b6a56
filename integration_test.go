package petabricks_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"petabricks/internal/pbc/parser"
)

// goRun invokes a command of this module with the Go toolchain.
func goRun(t *testing.T, args ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping toolchain invocation in -short mode")
	}
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func writeRollingSum(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rollingsum.pbcc")
	if err := os.WriteFile(path, []byte(parser.RollingSumSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLICompilerDriver(t *testing.T) {
	src := writeRollingSum(t)
	out := goRun(t, "./cmd/pbc", "-grid", "-graph", "-schedule", src)
	for _, want := range []string{
		"[1, n) = {rule 0, rule 1}",
		"(r1,=,-1)",
		"iterate dim 0 ascending",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("pbc output missing %q:\n%s", want, out)
		}
	}
	// Default summary mode.
	sum := goRun(t, "./cmd/pbc", src)
	if !strings.Contains(sum, "transform RollingSum: 2 rules") {
		t.Errorf("pbc summary: %s", sum)
	}
	// DOT output.
	dot := goRun(t, "./cmd/pbc", "-dot", src)
	if !strings.Contains(dot, "digraph") {
		t.Errorf("pbc -dot: %s", dot)
	}
}

func TestCLIEmitCompiles(t *testing.T) {
	src := writeRollingSum(t)
	code := goRun(t, "./cmd/pbc", "-emit", src)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(code), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module gen\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", ".")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("emitted code failed to run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "B checksum") {
		t.Fatalf("emitted demo printed %q", out)
	}
}

func TestCLITuneThenRun(t *testing.T) {
	src := writeRollingSum(t)
	cfgPath := filepath.Join(t.TempDir(), "rs.cfg")
	tuneOut := goRun(t, "./cmd/pbtune", "-src", src, "-max", "1024", "-o", cfgPath)
	if !strings.Contains(tuneOut, "wrote "+cfgPath) {
		t.Fatalf("pbtune output: %s", tuneOut)
	}
	runOut := goRun(t, "./cmd/pbrun", "-src", src, "-config", cfgPath, "-n", "64")
	if !strings.Contains(runOut, "B: shape [64]") {
		t.Fatalf("pbrun output: %s", runOut)
	}
}

// TestCLITuneDefaultPath tunes a DSL transform without -o: the config
// is named after the tuned transform, and no benchmark's config file
// (sort.cfg, the -bench default) is written over.
func TestCLITuneDefaultPath(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping toolchain invocation in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "pbtune")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/pbtune").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/pbtune: %v\n%s", err, out)
	}
	src, err := filepath.Abs("testdata/rollingsum.pbcc")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := exec.Command(bin, "-src", src, "-max", "64")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("pbtune -src: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "wrote RollingSum.cfg") {
		t.Errorf("pbtune output: %s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "RollingSum.cfg")); err != nil {
		t.Errorf("no RollingSum.cfg: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "sort.cfg")); !os.IsNotExist(err) {
		t.Errorf("pbtune -src wrote sort.cfg (stat: %v)", err)
	}
}

func TestCLIArchTune(t *testing.T) {
	cfgPath := filepath.Join(t.TempDir(), "niagara.cfg")
	out := goRun(t, "./cmd/pbtune", "-bench", "sort", "-arch", "Niagara",
		"-max", "100000", "-o", cfgPath)
	if !strings.Contains(out, "trained on model Niagara") {
		t.Fatalf("pbtune -arch output: %s", out)
	}
	runOut := goRun(t, "./cmd/pbrun", "-bench", "sort", "-config", cfgPath,
		"-n", "50000", "-trials", "1")
	if !strings.Contains(runOut, "sort n=50000") {
		t.Fatalf("pbrun output: %s", runOut)
	}
}

func TestCLIBenchQuickTable(t *testing.T) {
	out := goRun(t, "./cmd/pbbench", "-exp", "table2")
	for _, want := range []string{"Mobile", "Niagara", "Algorithm choices"} {
		if !strings.Contains(out, want) {
			t.Fatalf("pbbench table2 missing %q:\n%s", want, out)
		}
	}
}

// TestCLIServeMemoryOnly boots pbserve on a DSL program, serves one run
// and stops it with SIGTERM: compiled code lives in memory only, so the
// store file is all the process leaves behind, even in its working
// directory, and neither /v1/stats nor /metrics reports an artifact
// store.
func TestCLIServeMemoryOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping toolchain invocation in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "pbserve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/pbserve").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/pbserve: %v\n%s", err, out)
	}
	dsl, err := filepath.Abs("benchmark/programs/rollingsum.pbcc")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	dir := t.TempDir()
	cmd := exec.Command(bin, "-addr", addr, "-store", filepath.Join(dir, "pbserve.store.json"),
		"-dsl", dsl, "-workers", "1")
	cmd.Dir = dir
	var logs bytes.Buffer
	cmd.Stdout, cmd.Stderr = &logs, &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	// fail stops the process, so its output is complete, and reports it.
	exited := false
	fail := func(format string, args ...any) {
		t.Helper()
		if !exited {
			cmd.Process.Kill()
			<-done
			exited = true
		}
		t.Fatalf(format+"\n%s", append(args, logs.String())...)
	}
	defer func() {
		if !exited {
			cmd.Process.Kill()
			<-done
		}
	}()

	base := "http://" + addr
	for i := 0; ; i++ {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		if i == 100 {
			fail("pbserve never became healthy")
		}
		time.Sleep(50 * time.Millisecond)
	}
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			fail("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			fail("GET %s: %d %v\n%s", path, resp.StatusCode, err, body)
		}
		return body
	}

	resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(`{"program":"RollingSum","n":300}`))
	if err != nil {
		fail("POST /v1/run: %v", err)
	}
	var run struct {
		Program string `json:"program"`
	}
	err = json.NewDecoder(resp.Body).Decode(&run)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || run.Program != "RollingSum" {
		fail("/v1/run: status %d, %+v, %v", resp.StatusCode, run, err)
	}
	var stats map[string]any
	if err := json.Unmarshal(get("/v1/stats"), &stats); err != nil {
		fail("/v1/stats: %v", err)
	}
	if _, ok := stats["artifacts"]; ok {
		t.Errorf("/v1/stats reports an artifacts section: %v", stats["artifacts"])
	}
	if metrics := get("/metrics"); bytes.Contains(metrics, []byte("pb_artifact_")) {
		t.Error("/metrics exposes pb_artifact_ series")
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		fail("SIGTERM: %v", err)
	}
	select {
	case err := <-done:
		exited = true
		if err != nil {
			fail("pbserve exited with %v", err)
		}
	case <-time.After(30 * time.Second):
		fail("pbserve did not stop after SIGTERM")
	}
	if !strings.Contains(logs.String(), "stopped cleanly") {
		t.Errorf("pbserve log lacks \"stopped cleanly\":\n%s", logs.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != "pbserve.store.json" {
		t.Errorf("pbserve left %v in its directory, want only pbserve.store.json", names)
	}
}
