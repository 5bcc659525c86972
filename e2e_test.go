package kadop

// End-to-end test of the command-line tools: builds the binaries, runs
// a two-peer TCP deployment, generates a corpus, publishes it, and
// queries it — the full kadop-peer/kadop-gen/kadop-publish/kadop-query
// workflow from the README.

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

// startDaemon launches a long-running tool, logging its output to a
// file (dumped on test failure), and returns its first stdout line (the
// banner) plus a stopper.
func startDaemon(t *testing.T, logPath, bin string, args ...string) (string, func()) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	stop := func() {
		cmd.Process.Kill()
		cmd.Wait()
		logf.Close()
	}
	t.Cleanup(func() {
		if t.Failed() {
			out, _ := os.ReadFile(logPath)
			t.Logf("%s log:\n%s", filepath.Base(logPath), out)
		}
	})
	lineCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			lineCh <- sc.Text()
		}
		for sc.Scan() {
			fmt.Fprintln(logf, sc.Text())
		}
	}()
	select {
	case line := <-lineCh:
		return line, stop
	case <-time.After(15 * time.Second):
		stop()
		t.Fatalf("%s produced no banner", bin)
		return "", nil
	}
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	peerBin := buildTool(t, dir, "kadop-peer")
	genBin := buildTool(t, dir, "kadop-gen")
	pubBin := buildTool(t, dir, "kadop-publish")
	queryBin := buildTool(t, dir, "kadop-query")

	// Two peers; the first also gets a durable data directory.
	banner1, stop1 := startDaemon(t, filepath.Join(dir, "p1.log"), peerBin,
		"-listen", "127.0.0.1:0", "-id", "1", "-data", filepath.Join(dir, "p1"))
	defer stop1()
	fields := strings.Fields(banner1)
	addr := fields[len(fields)-1]
	if !strings.Contains(addr, ":") {
		t.Fatalf("no address in banner %q", banner1)
	}
	_, stop2 := startDaemon(t, filepath.Join(dir, "p2.log"), peerBin,
		"-listen", "127.0.0.1:0", "-id", "2", "-bootstrap", addr)
	defer stop2()

	// Generate a small corpus.
	corpusDir := filepath.Join(dir, "corpus")
	out, err := exec.Command(genBin, "-corpus", "dblp", "-records", "100", "-out", corpusDir).CombinedOutput()
	if err != nil {
		t.Fatalf("kadop-gen: %v\n%s", err, out)
	}
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.xml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}

	// Publish from an ephemeral peer that stays up to serve phase two.
	pubArgs := append([]string{"-bootstrap", addr, "-id", "10"}, files...)
	banner, stopPub := startDaemon(t, filepath.Join(dir, "pub.log"), pubBin, pubArgs...)
	defer stopPub()
	if !strings.Contains(banner, "published") {
		t.Fatalf("publish banner = %q", banner)
	}
	// Give the publisher a moment to finish the remaining files.
	deadline := time.Now().Add(30 * time.Second)
	var lastOut []byte
	for {
		lastOut, err = exec.Command(queryBin,
			"-bootstrap", addr, "-id", "99",
			fmt.Sprintf(`//article//author[. contains "Ullman"]`)).CombinedOutput()
		if err == nil && strings.Contains(string(lastOut), "answers") &&
			!strings.Contains(string(lastOut), " 0 answers") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query never found answers: err=%v\n%s", err, lastOut)
		}
		time.Sleep(500 * time.Millisecond)
	}
	if !strings.Contains(string(lastOut), "candidate documents") {
		t.Fatalf("query output missing phase-one report:\n%s", lastOut)
	}
}
