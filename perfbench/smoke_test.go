package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/workload"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (e2e, perLayer map[string]string) {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return e2e, perLayer
}

func smoke(t *testing.T, workload string, trace bool, corrupt int) (result, string) {
	t.Helper()
	var out strings.Builder
	res, err := run(config{workload: workload, seed: 7, seconds: 0.05, trace: trace, small: true, corrupt: corrupt}, &out)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if res.Attempted < 1 {
		t.Fatalf("%s: attempted %d ops", workload, res.Attempted)
	}
	return res, out.String()
}

// sameMetrics checks that got holds exactly the declared names, each with
// its declared unit.
func sameMetrics(t *testing.T, workload string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, want %q", workload, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", workload, name)
		}
	}
}

func TestSmokeEveryWorkloadEmitsItsMetrics(t *testing.T) {
	e2e, perLayer := declared(t)
	for _, w := range workloadNames {
		res, ledger := smoke(t, w, false, -1)
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d\n%s", w, res.Correct, res.Failed, ledger)
		}
		sameMetrics(t, w, res.Metrics, e2e)
		if w == "reprotables-all" {
			// The branch count is the suite input, not the number of
			// simulations the memo let through.
			got := res.Metrics["branches_per_s"].Value * res.Metrics["pass_s"].Value
			if want := float64(len(workload.All()) * 300); math.Abs(got-want) > 1e-6*want {
				t.Errorf("reprotables-all: branches_per_s x pass_s = %v, want %v", got, want)
			}
		}
		for name := range e2e {
			if !strings.Contains(ledger, name) {
				t.Errorf("%s: ledger does not print %s", w, name)
			}
		}
		if !strings.Contains(ledger, "fail_frac") || !strings.Contains(ledger, "nproc=") {
			t.Errorf("%s: ledger lacks fail_frac or the host record:\n%s", w, ledger)
		}
		res, ledger = smoke(t, w, true, -1)
		if !res.Correct {
			t.Errorf("%s traced: failed=%d\n%s", w, res.Failed, ledger)
		}
		sameMetrics(t, w+" traced", res.Metrics, perLayer)
	}
}

func TestSmokeCorruptedOutputCountsAsFailure(t *testing.T) {
	for _, w := range workloadNames {
		res, ledger := smoke(t, w, false, 0)
		if res.Correct || res.Failed < 1 {
			t.Errorf("%s: a corrupted output gave correct=%v failed=%d", w, res.Correct, res.Failed)
		}
		if !strings.Contains(ledger, "FAIL:") {
			t.Errorf("%s: ledger does not report the failure:\n%s", w, ledger)
		}
	}
}
