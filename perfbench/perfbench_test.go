package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricSpec{endToEnd, reported, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %s", m.Name, nameRE)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("metric %s: better %q, want higher or lower", m.Name, m.Better)
			}
			if seen[m.Name] {
				t.Errorf("metric %s listed twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, m := range endToEnd {
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the catalog %d", len(f.EndToEnd), len(endToEnd))
	}
	for i := 0; i < min(len(f.EndToEnd), len(endToEnd)); i++ {
		if f.EndToEnd[i] != endToEnd[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, catalog %+v", i, f.EndToEnd[i], endToEnd[i])
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the catalog %d", len(f.PerLayer), len(perLayer))
	}
	for i := 0; i < min(len(f.PerLayer), len(perLayer)); i++ {
		if f.PerLayer[i] != perLayer[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, catalog %+v", i, f.PerLayer[i], perLayer[i])
		}
	}
	ws := workloads()
	if len(f.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(f.Workloads), len(ws))
	}
	for i, w := range ws {
		if f.Workloads[i].Name != w.info().name || f.Workloads[i].Why != w.info().why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q: %q", i, f.Workloads[i], w.info().name, w.info().why)
		}
	}
	if len(f.Paths) != 1 || f.Paths[0] != "perfbench" {
		t.Errorf("paths %v, want [perfbench]", f.Paths)
	}
	if strings.Join(f.Command, " ") != "bash perfbench/run.sh" {
		t.Errorf("command %v, want bash perfbench/run.sh", f.Command)
	}
}

func TestJobSeedsDependOnlyOnTheRunSeed(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 4; seed++ {
		for i := 0; i < 8; i++ {
			s := jobSeed(seed, i)
			if s == 0 || s != jobSeed(seed, i) || seen[s] {
				t.Fatalf("jobSeed(%d, %d) = %d: want nonzero, repeatable and unique", seed, i, s)
			}
			seen[s] = true
		}
	}
}

// TestSmoke runs every workload in short mode, untraced and traced, and
// checks that its outputs pass and that it emits exactly the metrics
// BENCHMARK.json names for that kind of run.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range workloads() {
		for _, trace := range []string{"0", "1"} {
			name := w.info().name
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace, "--short", "--out", t.TempDir()}
				if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := f.EndToEnd
				if trace == "1" {
					want = f.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics %v, want %d", len(res.Metrics), sortedKeys(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not emitted", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "mesh-ring", "--trace", "2"},
		{"--workload", "mesh-ring", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a non-zero exit and no result", args, code, stdout.String())
		}
	}
}
