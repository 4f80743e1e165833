package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fmtFloat renders a benchmark ns/op value as a JSON number.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func writeReport(t *testing.T, dir, name, body string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", `{
  "schema": "rhythm-bench/v1", "goos": "linux", "goarch": "amd64", "cpus": 1,
  "benchmarks": [
    {"name": "PathP99", "iters": 100, "ns_per_op": 300000, "allocs_per_op": 0, "bytes_per_op": 2},
    {"name": "Gone", "iters": 10, "ns_per_op": 50, "allocs_per_op": 1, "bytes_per_op": 8}
  ]
}`)
	new := writeReport(t, dir, "new.json", `{
  "schema": "rhythm-bench/v1", "goos": "linux", "goarch": "amd64", "cpus": 1,
  "benchmarks": [
    {"name": "PathP99", "iters": 200, "ns_per_op": 150000, "allocs_per_op": 0, "bytes_per_op": 0},
    {"name": "Fresh", "iters": 10, "ns_per_op": 75, "allocs_per_op": 2, "bytes_per_op": 16}
  ]
}`)

	var sb strings.Builder
	if err := compareReports(old, new, false, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"PathP99", "-150000.0", "(-50.0%)", // ns/op halved, signed with percent
		"-2",        // bytes went 2 -> 0
		"(added)",   // Fresh only in new
		"(removed)", // Gone only in old
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("compare output missing %q:\n%s", want, out)
		}
	}
	// allocs unchanged for PathP99: rendered as bare "=" cell.
	if !strings.Contains(out, "=") {
		t.Fatalf("unchanged metric not rendered as '=':\n%s", out)
	}
}

// TestFlagBehavior pins the shared cliflags contract in this binary:
// -jobs validates through the same path (same message) as cmd/rhythm,
// and -compare usage errors exit 2.
func TestFlagBehavior(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-jobs", "0", "-compare"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-jobs 0: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-jobs must be at least 1, got 0") {
		t.Fatalf("jobs diagnostic: %s", stderr.String())
	}
	stderr.Reset()
	if code := realMain([]string{"-compare", "only-one.json"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-compare with one arg: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "usage: rhythm-bench -compare") {
		t.Fatalf("compare usage diagnostic: %s", stderr.String())
	}
	stderr.Reset()
	if code := realMain([]string{"-compare", "nope-a.json", "nope-b.json"}, &stdout, &stderr); code != 1 {
		t.Fatalf("-compare with missing files: exit %d, want 1", code)
	}
}

func TestCompareReportsBadSchema(t *testing.T) {
	dir := t.TempDir()
	bad := writeReport(t, dir, "bad.json", `{"schema": "other/v9"}`)
	good := writeReport(t, dir, "good.json", `{"schema": "rhythm-bench/v1"}`)
	var sb strings.Builder
	if err := compareReports(bad, good, false, &sb); err == nil {
		t.Fatal("expected schema error")
	}
}

// TestCompareGate pins the blocking-drift contract: with gate set, a >25%
// ns/op regression on a gated row (EngineTick, FleetTick) fails after the
// table prints, while any drift on a non-gated row — and regressions
// within tolerance — pass.
func TestCompareGate(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", `{
  "schema": "rhythm-bench/v1", "goos": "linux", "goarch": "amd64", "cpus": 1,
  "benchmarks": [
    {"name": "EngineTick", "iters": 100, "ns_per_op": 10000, "allocs_per_op": 0, "bytes_per_op": 0},
    {"name": "FleetTick", "iters": 100, "ns_per_op": 8000000, "allocs_per_op": 9, "bytes_per_op": 512},
    {"name": "TailTrackerAddP99", "iters": 100, "ns_per_op": 1000, "allocs_per_op": 0, "bytes_per_op": 0}
  ]
}`)
	cases := []struct {
		name     string
		engineNs float64
		trackNs  float64
		wantFail bool
	}{
		{"regression past tolerance fails", 13000, 1000, true},
		{"regression within tolerance passes", 12000, 1000, false},
		{"non-gated row may drift freely", 10000, 90000, false},
		{"improvement passes", 5000, 1000, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			new := writeReport(t, dir, "new.json", `{
  "schema": "rhythm-bench/v1", "goos": "linux", "goarch": "amd64", "cpus": 1,
  "benchmarks": [
    {"name": "EngineTick", "iters": 100, "ns_per_op": `+fmtFloat(tc.engineNs)+`, "allocs_per_op": 0, "bytes_per_op": 0},
    {"name": "FleetTick", "iters": 100, "ns_per_op": 8000000, "allocs_per_op": 9, "bytes_per_op": 512},
    {"name": "TailTrackerAddP99", "iters": 100, "ns_per_op": `+fmtFloat(tc.trackNs)+`, "allocs_per_op": 0, "bytes_per_op": 0}
  ]
}`)
			var sb strings.Builder
			err := compareReports(old, new, true, &sb)
			if tc.wantFail && err == nil {
				t.Fatalf("gate passed a >25%% EngineTick regression:\n%s", sb.String())
			}
			if !tc.wantFail && err != nil {
				t.Fatalf("gate failed unexpectedly: %v\n%s", err, sb.String())
			}
			if tc.wantFail && !strings.Contains(err.Error(), "EngineTick") {
				t.Fatalf("gate error does not name the regressed row: %v", err)
			}
			// The drift table must print even when the gate trips.
			if !strings.Contains(sb.String(), "EngineTick") {
				t.Fatalf("table missing from gated compare:\n%s", sb.String())
			}
			// Without gate the same reports always pass.
			sb.Reset()
			if err := compareReports(old, new, false, &sb); err != nil {
				t.Fatalf("ungated compare failed: %v", err)
			}
		})
	}
}

// TestCompareKernelsNote: reports from different sampler kernel sets (or
// one that predates the field) are flagged as not comparable; matching
// sets compare silently.
func TestCompareKernelsNote(t *testing.T) {
	dir := t.TempDir()
	body := func(kernels string) string {
		return `{"schema": "rhythm-bench/v1", ` + kernels + ` "benchmarks": [
    {"name": "EngineTick", "iters": 1, "ns_per_op": 100, "allocs_per_op": 0, "bytes_per_op": 0}]}`
	}
	old := writeReport(t, dir, "old.json", body(""))
	avx := writeReport(t, dir, "avx.json", body(`"kernels": "avx2",`))
	var sb strings.Builder
	if err := compareReports(old, avx, false, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "sampler kernels differ (unrecorded vs avx2)") {
		t.Fatalf("no kernel-set note:\n%s", sb.String())
	}
	sb.Reset()
	if err := compareReports(avx, avx, false, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "kernels differ") {
		t.Fatalf("note on matching kernel sets:\n%s", sb.String())
	}
}
