package counter

import (
	"testing"
	"testing/quick"
)

func TestSignedBounds(t *testing.T) {
	cases := []struct {
		bits     uint
		min, max int8
	}{
		{2, -2, 1},
		{3, -4, 3},
		{4, -8, 7},
		{5, -16, 15},
	}
	for _, c := range cases {
		if got := SignedMin(c.bits); got != c.min {
			t.Errorf("SignedMin(%d) = %d, want %d", c.bits, got, c.min)
		}
		if got := SignedMax(c.bits); got != c.max {
			t.Errorf("SignedMax(%d) = %d, want %d", c.bits, got, c.max)
		}
	}
}

func TestUpdateSignedSaturates(t *testing.T) {
	v := SignedMax(3)
	if got := UpdateSigned(v, 3, true); got != v {
		t.Errorf("increment at max: got %d, want %d", got, v)
	}
	v = SignedMin(3)
	if got := UpdateSigned(v, 3, false); got != v {
		t.Errorf("decrement at min: got %d, want %d", got, v)
	}
}

func TestUpdateSignedStepsByOne(t *testing.T) {
	for v := SignedMin(3); v < SignedMax(3); v++ {
		if got := UpdateSigned(v, 3, true); got != v+1 {
			t.Errorf("UpdateSigned(%d, taken) = %d, want %d", v, got, v+1)
		}
	}
	for v := SignedMax(3); v > SignedMin(3); v-- {
		if got := UpdateSigned(v, 3, false); got != v-1 {
			t.Errorf("UpdateSigned(%d, !taken) = %d, want %d", v, got, v-1)
		}
	}
}

func TestTakenSigned(t *testing.T) {
	for v := int8(-4); v <= 3; v++ {
		want := v >= 0
		if got := TakenSigned(v); got != want {
			t.Errorf("TakenSigned(%d) = %v, want %v", v, got, want)
		}
	}
}

func TestWeakSigned(t *testing.T) {
	for v := int8(-4); v <= 3; v++ {
		want := v == 0 || v == -1
		if got := WeakSigned(v); got != want {
			t.Errorf("WeakSigned(%d) = %v, want %v", v, got, want)
		}
	}
}

func TestStrengthClasses(t *testing.T) {
	// The paper's class boundaries for a 3-bit counter.
	want := map[int8]int{
		-4: 7, 3: 7, // Stag
		-3: 5, 2: 5, // NStag
		-2: 3, 1: 3, // NWtag
		-1: 1, 0: 1, // Wtag
	}
	for v, s := range want {
		if got := Strength(v); got != s {
			t.Errorf("Strength(%d) = %d, want %d", v, got, s)
		}
	}
}

func TestSaturationPredicates(t *testing.T) {
	for v := int8(-4); v <= 3; v++ {
		wantSat := v == -4 || v == 3
		wantNear := v == -3 || v == 2
		if got := SaturatedSigned(v, 3); got != wantSat {
			t.Errorf("SaturatedSigned(%d) = %v, want %v", v, got, wantSat)
		}
		if got := NearlySaturatedSigned(v, 3); got != wantNear {
			t.Errorf("NearlySaturatedSigned(%d) = %v, want %v", v, got, wantNear)
		}
	}
}

func TestUnsignedSaturation(t *testing.T) {
	v := uint8(0)
	for i := 0; i < 10; i++ {
		v = IncUnsigned(v, 2)
	}
	if v != 3 {
		t.Errorf("2-bit unsigned after 10 increments = %d, want 3", v)
	}
	for i := 0; i < 10; i++ {
		v = DecUnsigned(v)
	}
	if v != 0 {
		t.Errorf("after 10 decrements = %d, want 0", v)
	}
}

func TestBimodalTransitions(t *testing.T) {
	b := BimodalWeakNotTaken
	b = b.Update(true)
	if b != BimodalWeakTaken {
		t.Fatalf("1 -> taken should be 2, got %d", b)
	}
	b = b.Update(true)
	if b != BimodalStrongTaken {
		t.Fatalf("2 -> taken should be 3, got %d", b)
	}
	b = b.Update(true)
	if b != BimodalStrongTaken {
		t.Fatalf("3 must saturate, got %d", b)
	}
	b = b.Update(false).Update(false).Update(false).Update(false)
	if b != BimodalStrongNotTaken {
		t.Fatalf("repeated not-taken must reach 0, got %d", b)
	}
}

func TestBimodalPredicatesExhaustive(t *testing.T) {
	if BimodalStrongNotTaken.Taken() || BimodalWeakNotTaken.Taken() {
		t.Error("0/1 must predict not-taken")
	}
	if !BimodalWeakTaken.Taken() || !BimodalStrongTaken.Taken() {
		t.Error("2/3 must predict taken")
	}
	if BimodalStrongNotTaken.Weak() || BimodalStrongTaken.Weak() {
		t.Error("0/3 are strong states")
	}
	if !BimodalWeakNotTaken.Weak() || !BimodalWeakTaken.Weak() {
		t.Error("1/2 are weak states")
	}
}

func TestStandardAutomatonMatchesPureFunction(t *testing.T) {
	// The standard automaton is UpdateSigned: one step toward the outcome,
	// clamped to the counter's range, at every width TAGE accepts.
	for bits := uint(2); bits <= 6; bits++ {
		lo, hi := int(SignedMin(bits)), int(SignedMax(bits))
		for v := lo; v <= hi; v++ {
			for _, taken := range []bool{true, false} {
				want := v - 1
				if taken {
					want = v + 1
				}
				want = max(lo, min(hi, want))
				if got := UpdateSigned(int8(v), bits, taken); int(got) != want {
					t.Errorf("UpdateSigned(%d, %d, %v) = %d, want %d", v, bits, taken, got, want)
				}
			}
		}
	}
}

func TestProbabilisticNonSaturatingTransitionsUnchanged(t *testing.T) {
	p := NewProbabilistic(1, 7)
	for v := int8(-4); v <= 3; v++ {
		for _, taken := range []bool{true, false} {
			// The only throttled transitions are 2->3 on taken and -3->-4 on
			// not-taken. Everything else must match the standard automaton.
			if (v == 2 && taken) || (v == -3 && !taken) {
				continue
			}
			if got, want := p.Update(v, 3, taken), UpdateSigned(v, 3, taken); got != want {
				t.Errorf("Probabilistic.Update(%d, %v) = %d, want %d", v, taken, got, want)
			}
		}
	}
}

func TestProbabilisticThrottlesSaturation(t *testing.T) {
	p := NewProbabilistic(42, 7) // probability 1/128
	const trials = 128 * 1000
	saturations := 0
	for i := 0; i < trials; i++ {
		if p.Update(2, 3, true) == 3 {
			saturations++
		}
	}
	rate := float64(saturations) / trials
	want := 1.0 / 128
	if rate < want/2 || rate > want*2 {
		t.Errorf("positive saturation rate = %v, want ~%v", rate, want)
	}
	saturations = 0
	for i := 0; i < trials; i++ {
		if p.Update(-3, 3, false) == -4 {
			saturations++
		}
	}
	rate = float64(saturations) / trials
	if rate < want/2 || rate > want*2 {
		t.Errorf("negative saturation rate = %v, want ~%v", rate, want)
	}
}

func TestProbabilisticDenomLogZeroIsStandard(t *testing.T) {
	p := NewProbabilistic(3, 0)
	for i := 0; i < 100; i++ {
		if got := p.Update(2, 3, true); got != 3 {
			t.Fatalf("with probability 1, 2->3 must always happen; got %d", got)
		}
		if got := p.Update(-3, 3, false); got != -4 {
			t.Fatalf("with probability 1, -3->-4 must always happen; got %d", got)
		}
	}
}

func TestProbabilisticClampsDenomLog(t *testing.T) {
	p := NewProbabilistic(1, 99)
	if p.DenomLog() != MaxDenomLog {
		t.Fatalf("constructor clamp: got %d, want %d", p.DenomLog(), MaxDenomLog)
	}
	p.SetDenomLog(50)
	if p.DenomLog() != MaxDenomLog {
		t.Fatalf("SetDenomLog clamp: got %d, want %d", p.DenomLog(), MaxDenomLog)
	}
	p.SetDenomLog(3)
	if p.Probability() != 1.0/8 {
		t.Fatalf("Probability() = %v, want 1/8", p.Probability())
	}
}

func TestProbabilisticWrongDirectionNeverSaturates(t *testing.T) {
	// A counter at 2 observing not-taken must decrement, never jump to 3.
	p := NewProbabilistic(5, 7)
	for i := 0; i < 100; i++ {
		if got := p.Update(2, 3, false); got != 1 {
			t.Fatalf("Update(2, !taken) = %d, want 1", got)
		}
		if got := p.Update(-3, 3, true); got != -2 {
			t.Fatalf("Update(-3, taken) = %d, want -2", got)
		}
	}
}

func TestQuickSignedStaysInRange(t *testing.T) {
	f := func(start int8, takens []bool) bool {
		v := start
		if v < SignedMin(3) {
			v = SignedMin(3)
		}
		if v > SignedMax(3) {
			v = SignedMax(3)
		}
		for _, tk := range takens {
			v = UpdateSigned(v, 3, tk)
			if v < SignedMin(3) || v > SignedMax(3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickProbabilisticStaysInRange(t *testing.T) {
	f := func(seed uint64, takens []bool) bool {
		p := NewProbabilistic(seed, 7)
		v := int8(0)
		for _, tk := range takens {
			v = p.Update(v, 3, tk)
			if v < SignedMin(3) || v > SignedMax(3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBimodalStaysInRange(t *testing.T) {
	f := func(takens []bool) bool {
		b := BimodalWeakNotTaken
		for _, tk := range takens {
			b = b.Update(tk)
			if b > BimodalStrongTaken {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStrengthIsOdd(t *testing.T) {
	f := func(raw int8) bool {
		v := raw
		if v < SignedMin(3) || v > SignedMax(3) {
			v = 0
		}
		s := Strength(v)
		return s%2 == 1 && s >= 1 && s <= 7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFourBitStrengthRange(t *testing.T) {
	// The paper's §6 discusses widening to 4 bits; Strength must extend.
	if got := Strength(SignedMax(4)); got != 15 {
		t.Errorf("Strength(max4) = %d, want 15", got)
	}
	if got := Strength(SignedMin(4)); got != 15 {
		t.Errorf("Strength(min4) = %d, want 15", got)
	}
}

func BenchmarkStandardUpdate(b *testing.B) {
	v := int8(0)
	for i := 0; i < b.N; i++ {
		v = UpdateSigned(v, 3, i&3 == 0)
	}
	_ = v
}

func BenchmarkProbabilisticUpdate(b *testing.B) {
	p := NewProbabilistic(1, 7)
	v := int8(0)
	for i := 0; i < b.N; i++ {
		v = p.Update(v, 3, i&3 != 0)
	}
	_ = v
}
