package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"mcdc/client"
)

// toySizes shrinks every workload so the whole command runs in seconds.
var toySizes = sizes{trainN: 240, modelN: 200, poolN: 256, chunk: 16, window: 40, sessionRows: 80, setupReps: 2}

// catalog is the part of BENCHMARK.json the smoke test holds the command to.
type catalog struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readCatalog(t *testing.T) catalog {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c catalog
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// runToy runs one toy-sized invocation and decodes its last output line,
// checking the line has exactly the contract's keys. It also returns the
// whole output.
func runToy(t *testing.T, workload string, trace, corrupt bool) (result, string) {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: workload, seed: 7, seconds: 1, trace: trace, sizes: toySizes, runDir: t.TempDir(), corrupt: corrupt}
	if err := run(o, &out); err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := []byte(lines[len(lines)-1])
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatalf("%s: last line is not JSON: %s", workload, last)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("%s: result lacks %q", workload, k)
		}
	}
	if len(keys) != 4 {
		t.Errorf("%s: result has keys beyond the contract: %s", workload, last)
	}
	var r result
	if err := json.Unmarshal(last, &r); err != nil {
		t.Fatal(err)
	}
	return r, out.String()
}

// TestSmoke runs every workload at toy sizes, untraced and traced, and
// checks every metric BENCHMARK.json names appears with its unit and a
// finite value, and that every output check passed.
func TestSmoke(t *testing.T) {
	c := readCatalog(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range c.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range c.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			r, out := runToy(t, w.Name, trace, false)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, r.Correct, r.Attempted, r.Failed, out)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(r.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := r.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, trace, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, trace, name, m.Value)
				}
			}
		}
	}
}

// TestCorruptedReplyCounted alters one expected reply per workload and
// checks the mismatch is counted as a failed operation.
func TestCorruptedReplyCounted(t *testing.T) {
	for name := range workloads {
		r, _ := runToy(t, name, false, true)
		if r.Correct || r.Failed < 1 {
			t.Errorf("%s: corrupted expectation gave correct=%v failed=%d", name, r.Correct, r.Failed)
		}
	}
}

// TestVetClean keeps the benchmark at zero go vet and mcdcvet findings;
// mcdcvet's detrand pass admits only seeded *rand.Rand sources.
func TestVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the analyzers")
	}
	for _, args := range [][]string{{"vet", "./..."}, {"run", "mcdc/cmd/mcdcvet", "./..."}} {
		out, err := exec.Command("go", args...).CombinedOutput()
		if err != nil || len(bytes.TrimSpace(out)) > 0 {
			t.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}

// TestEpochARISkipsOneRowGroup pins the session ARI on a phase that ends
// one row into a new model epoch: that group has no defined ARI and must
// not turn the metric into NaN.
func TestEpochARISkipsOneRowGroup(t *testing.T) {
	p := &sessionPlan{truth: []int{0, 0, 1, 1, 2}}
	for i, e := range []int{0, 1, 1, 1, 2} {
		p.replies = append(p.replies, client.Assignment{Cluster: p.truth[i], Epoch: e})
	}
	wsum, rows := p.epochARI()
	if rows != 3 || math.IsNaN(wsum) || wsum != 3 {
		t.Fatalf("epochARI = %v over %v rows, want 3 over 3", wsum, rows)
	}
}
