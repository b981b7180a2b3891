package main

import (
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke builds the benchmark and runs every workload at tiny sizes,
// untraced and traced. Every run must verify, print every metric of its
// set, and the dsim model throughput must repeat exactly across runs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	run := func(workload, trace string) (report map[string]any, metrics map[string]any) {
		t.Helper()
		cmd := exec.Command(bin, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--scale", "tiny")
		cmd.Dir = t.TempDir()
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s --trace %s: %v", workload, trace, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if len(lines) < 2 {
			t.Fatalf("%s: want a report line and a result line, got %q", workload, out)
		}
		var rep struct{ Report map[string]any }
		var res struct {
			Correct           bool
			Attempted, Failed int64
			Metrics           map[string]any
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
			t.Fatalf("%s report: %v", workload, err)
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s result: %v", workload, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("%s --trace %s: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s --trace %s: %d metrics, want %d", workload, trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			v, ok := res.Metrics[m.name].(map[string]any)
			if !ok || v["unit"] != m.unit {
				t.Errorf("%s --trace %s: metric %s missing or without unit %s: %v", workload, trace, m.name, m.unit, res.Metrics[m.name])
			}
		}
		return rep.Report, res.Metrics
	}
	for w := range workloads {
		for _, trace := range []string{"0", "1"} {
			run(w, trace)
		}
	}
	first, _ := run("uts-dsim64", "0")
	second, _ := run("uts-dsim64", "0")
	if first["model_work_per_s"] != second["model_work_per_s"] {
		t.Errorf("dsim model throughput differs across runs: %v vs %v", first["model_work_per_s"], second["model_work_per_s"])
	}
}
