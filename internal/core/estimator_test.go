package core

import (
	"testing"

	"repro/internal/tage"
	"repro/internal/trace"
	"repro/internal/workload"
)

func drive(t *testing.T, est *Estimator, tr trace.Trace, limit uint64) (classCounts [NumClasses]struct{ preds, misps uint64 }) {
	t.Helper()
	r := trace.Limit(tr, limit).Open()
	for {
		b, err := r.Next()
		if err != nil {
			break
		}
		pred, class, level := est.Predict(b.PC)
		if class.Level() != level {
			t.Fatal("returned level disagrees with class mapping")
		}
		classCounts[class].preds++
		if pred != b.Taken {
			classCounts[class].misps++
		}
		est.Update(b.PC, b.Taken)
	}
	return
}

func TestEstimatorModes(t *testing.T) {
	for _, mode := range []AutomatonMode{ModeStandard, ModeProbabilistic, ModeAdaptive} {
		est := NewEstimator(tage.Small16K(), Options{Mode: mode})
		if est.Mode() != mode {
			t.Fatalf("mode = %v, want %v", est.Mode(), mode)
		}
		if mode == ModeStandard {
			if est.SaturationProbability() != 1 {
				t.Fatal("standard mode must report probability 1")
			}
			if est.Controller() != nil {
				t.Fatal("standard mode must have no controller")
			}
		} else {
			if est.SaturationProbability() != 1.0/128 {
				t.Fatalf("probability = %v, want 1/128", est.SaturationProbability())
			}
		}
		if mode == ModeAdaptive && est.Controller() == nil {
			t.Fatal("adaptive mode must have a controller")
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeStandard.String() != "standard" ||
		ModeProbabilistic.String() != "probabilistic" ||
		ModeAdaptive.String() != "adaptive" {
		t.Fatal("mode names wrong")
	}
	if AutomatonMode(9).String() != "invalid-mode" {
		t.Fatal("invalid mode should stringify as invalid")
	}
}

func TestEstimatorPanicsOnMismatchedUpdate(t *testing.T) {
	est := NewEstimator(tage.Small16K(), Options{})
	est.Predict(0x100)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Update must panic")
		}
	}()
	est.Update(0x999, true)
}

func TestAllSevenClassesAppear(t *testing.T) {
	est := NewEstimator(tage.Small16K(), Options{Mode: ModeProbabilistic})
	tr, err := workload.ByName("INT-3")
	if err != nil {
		t.Fatal(err)
	}
	counts := drive(t, est, tr, 120000)
	for _, c := range Classes() {
		if counts[c].preds == 0 {
			t.Errorf("class %v never observed", c)
		}
	}
}

func TestClassConfidenceOrderingStandard(t *testing.T) {
	// §5: with the standard automaton the class misprediction rates order
	// as Wtag ≥ NWtag ≥ NStag ≥ Stag, and low-conf-bim is far worse than
	// high-conf-bim.
	est := NewEstimator(tage.Small16K(), Options{Mode: ModeStandard})
	tr, err := workload.ByName("INT-3")
	if err != nil {
		t.Fatal(err)
	}
	counts := drive(t, est, tr, 200000)
	rate := func(c Class) float64 {
		if counts[c].preds == 0 {
			return 0
		}
		return float64(counts[c].misps) / float64(counts[c].preds)
	}
	if rate(Wtag) < rate(NStag) {
		t.Errorf("Wtag (%.3f) should be worse than NStag (%.3f)", rate(Wtag), rate(NStag))
	}
	if rate(NWtag) < rate(NStag) {
		t.Errorf("NWtag (%.3f) should be worse than NStag (%.3f)", rate(NWtag), rate(NStag))
	}
	if rate(NStag) < rate(Stag) {
		t.Errorf("NStag (%.3f) should be worse than Stag (%.3f)", rate(NStag), rate(Stag))
	}
	if rate(LowConfBim) < 4*rate(HighConfBim) {
		t.Errorf("low-conf-bim (%.3f) should dwarf high-conf-bim (%.3f)",
			rate(LowConfBim), rate(HighConfBim))
	}
	if rate(Wtag) < 0.15 {
		t.Errorf("Wtag rate %.3f suspiciously low (paper: 30%%+)", rate(Wtag))
	}
}

func TestModifiedAutomatonCleansStag(t *testing.T) {
	// §6: with probability 1/128, the Stag class misprediction rate falls
	// to the low single-digit MKP range, far below the standard automaton.
	tr, err := workload.ByName("INT-3")
	if err != nil {
		t.Fatal(err)
	}
	std := NewEstimator(tage.Small16K(), Options{Mode: ModeStandard})
	stdCounts := drive(t, std, tr, 200000)
	mod := NewEstimator(tage.Small16K(), Options{Mode: ModeProbabilistic})
	modCounts := drive(t, mod, tr, 200000)

	stdStag := 1000 * float64(stdCounts[Stag].misps) / float64(stdCounts[Stag].preds)
	modStag := 1000 * float64(modCounts[Stag].misps) / float64(modCounts[Stag].preds)
	if modStag > stdStag/2 {
		t.Errorf("modified Stag = %.1f MKP vs standard %.1f MKP: want a large drop", modStag, stdStag)
	}
	if modStag > 12 {
		t.Errorf("modified Stag = %.1f MKP, want low-MKP range on this trace", modStag)
	}
}

func TestAdaptiveControllerEngages(t *testing.T) {
	tr, err := workload.ByName("300.twolf") // hard trace: controller must react
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(tage.Small16K(), Options{
		Mode:           ModeAdaptive,
		AdaptiveWindow: 4096,
	})
	drive(t, est, tr, 200000)
	if est.Controller().Adjustments() == 0 {
		t.Error("adaptive controller never adjusted the probability on a hard trace")
	}
}

func TestOptionsDenomLog(t *testing.T) {
	est := NewEstimator(tage.Small16K(), Options{Mode: ModeProbabilistic, DenomLog: 4})
	if est.SaturationProbability() != 1.0/16 {
		t.Fatalf("probability = %v, want 1/16", est.SaturationProbability())
	}
}

func TestOptionsBimWindow(t *testing.T) {
	est := NewEstimator(tage.Small16K(), Options{BimWindow: 16})
	if est.Classifier().Window() != 16 {
		t.Fatalf("window = %d, want 16", est.Classifier().Window())
	}
	est = NewEstimator(tage.Small16K(), Options{BimWindow: -1})
	if est.Classifier().Window() != 0 {
		t.Fatalf("window = %d, want 0 (disabled)", est.Classifier().Window())
	}
	est = NewEstimator(tage.Small16K(), Options{})
	if est.Classifier().Window() != DefaultBimWindow {
		t.Fatalf("window = %d, want default %d", est.Classifier().Window(), DefaultBimWindow)
	}
}

func TestObservationAccess(t *testing.T) {
	est := NewEstimator(tage.Small16K(), Options{})
	pred, _, _ := est.Predict(0x4000)
	obs := est.Observation()
	if obs.PC != 0x4000 || obs.Pred != pred {
		t.Fatal("Observation does not reflect the last Predict")
	}
	est.Update(0x4000, true)
}

// TestObservationIsACopy: Observation hands out a copy, so neither the
// next Predict (which overwrites the predictor's own observation in
// place) nor writes to the copy reach the other side.
func TestObservationIsACopy(t *testing.T) {
	est := NewEstimator(tage.Small16K(), Options{})
	if got := est.Observation(); got != (tage.Observation{}) {
		t.Fatalf("Observation before any Predict = %+v, want zero", got)
	}
	est.Predict(0x4000)
	obs := est.Observation()
	est.Update(0x4000, true)
	est.Predict(0x4100)
	if obs.PC != 0x4000 {
		t.Fatalf("kept copy changed under the next Predict: PC %#x", obs.PC)
	}
	obs.PC = 0xdead
	if got := est.Observation().PC; got != 0x4100 {
		t.Fatalf("Observation PC %#x, want 0x4100", got)
	}
	est.Update(0x4100, false)
}
