package main_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildDriver compiles benchdiff once into the test's temp dir.
func buildDriver(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "benchdiff")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building benchdiff: %v\n%s", err, out)
	}
	return bin
}

// writeReport drops a bench-json fixture into dir and returns its path.
func writeReport(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const oldReport = `{"quick":true,"experiments":[
 {"experiment":"fig1","workers":1,"wall_ms":100,"allocs":1000},
 {"experiment":"ext-recovery","workers":1,"wall_ms":200,"allocs":2000,
  "wal_appends":5000,"checkpoint_bytes":4096,"replay_events":40,"recovery_cycles":90000}
]}`

const newReport = `{"quick":true,"experiments":[
 {"experiment":"fig1","workers":1,"wall_ms":105,"allocs":1000},
 {"experiment":"ext-recovery","workers":1,"wall_ms":210,"allocs":2000,
  "wal_appends":5200,"checkpoint_bytes":4096,"replay_events":44,"recovery_cycles":95000}
]}`

const regressedReport = `{"quick":true,"experiments":[
 {"experiment":"fig1","workers":1,"wall_ms":200,"allocs":1000}
]}`

// TestDriverExitCodes audits the exit-code contract: 0 = reports
// compared, 1 = threshold gate tripped, 2 = unusable input. The
// durability rows also pin the WAL detail line: new counts always
// render, and a change against the old report is called out.
func TestDriverExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the driver")
	}
	bin := buildDriver(t)
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", oldReport)
	newPath := writeReport(t, dir, "new.json", newReport)
	regPath := writeReport(t, dir, "reg.json", regressedReport)
	badPath := writeReport(t, dir, "bad.json", "{not json")
	emptyPath := writeReport(t, dir, "empty.json", `{"experiments":[]}`)
	otherPath := writeReport(t, dir, "other.json",
		`{"experiments":[{"experiment":"table9","workers":1,"wall_ms":1}]}`)

	cases := []struct {
		name string
		args []string
		exit int
		want []string
	}{
		{"report only", []string{oldPath, newPath}, 0,
			[]string{"fig1", "ext-recovery",
				"wal appends=5200 ckpt-bytes=4096 replays=44 rec-cycles=95000",
				"was appends=5000"}},
		{"identical durability counters stay quiet", []string{newPath, newPath}, 0,
			[]string{"wal appends=5200"}},
		{"threshold trips", []string{"-threshold", "10", oldPath, regPath}, 1, []string{"regressed"}},
		{"threshold passes", []string{"-threshold", "10", oldPath, newPath}, 0, nil},
		{"missing args", nil, 2, []string{"usage"}},
		{"unreadable file", []string{oldPath, filepath.Join(dir, "absent.json")}, 2, nil},
		{"invalid json", []string{oldPath, badPath}, 2, nil},
		{"empty report", []string{oldPath, emptyPath}, 2, []string{"no experiments"}},
		{"nothing in common", []string{oldPath, otherPath}, 2, []string{"no experiments in common"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			code := 0
			if err != nil {
				var exitErr *exec.ExitError
				if !errors.As(err, &exitErr) {
					t.Fatalf("running driver: %v\n%s", err, out)
				}
				code = exitErr.ExitCode()
			}
			if code != tc.exit {
				t.Fatalf("exit %d, want %d\n%s", code, tc.exit, out)
			}
			for _, w := range tc.want {
				if !strings.Contains(string(out), w) {
					t.Errorf("output missing %q\n%s", w, out)
				}
			}
		})
	}

	t.Run("identical reports flag nothing as changed", func(t *testing.T) {
		out, err := exec.Command(bin, newPath, newPath).CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if strings.Contains(string(out), "simulated behavior changed") {
			t.Errorf("self-diff claims behavior changed:\n%s", out)
		}
	})
}
