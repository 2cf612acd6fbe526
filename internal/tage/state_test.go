package tage

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/counter"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// TestSnapshotBytesPinned drives each paper configuration over a fixed
// 50k-branch trace and a seeded random tail, and compares a SHA-256 of
// the resulting AppendState image with constants recorded before the
// probe and folded-history kernels were last rewritten. Round-trip tests
// only prove that one build reads back what it wrote; this pins the
// snapshot format and the predictor state it captures to committed
// bytes, so a hot-path rewrite that drifts by one fold bit or one
// allocation fails here.
func TestSnapshotBytesPinned(t *testing.T) {
	want := map[string]string{
		"16Kbits/standard":       "a1feb164c0fb0681389b5c6c3b05558b5205f8f98754c91e51fdc1f71dc6ac94",
		"16Kbits/probabilistic":  "78cc56301b9dd660c2a342dd52f17f42c34f6b4f447cf9e949381b3ceb6c7472",
		"64Kbits/standard":       "6837010447d288f75746ad92cde06ef5266427160d48b197a8cf0e0c5844847d",
		"64Kbits/probabilistic":  "d4e90530c577e0159a96754092863586db399c9cc390118125b4a6026a04bae3",
		"256Kbits/standard":      "5309f87041b958dc4714d4f1455d65261ef7478d299de0dcc12a1aef41963cac",
		"256Kbits/probabilistic": "4a6cf5533f500fc7e3562cf720609e22a131078c0b3d1d449373af59398dc659",
	}
	tr, err := workload.ByName("INT-3")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range StandardConfigs() {
		for _, mode := range []string{"standard", "probabilistic"} {
			var auto *counter.Probabilistic
			if mode == "probabilistic" {
				auto = counter.NewProbabilistic(cfg.Seed, counter.DefaultDenomLog)
			}
			p := NewWithAutomaton(cfg, auto)
			runOn(p, tr, 50_000)
			// The trace's PCs are 4-byte aligned and leave the path
			// register at zero; a seeded tail of unaligned PCs brings the
			// path hash into the pinned state.
			rng := xrand.New(13)
			for i := 0; i < 10_000; i++ {
				pc := uint64(rng.Uint32())
				p.Predict(pc)
				p.Update(pc, rng.Bool())
			}
			sum := sha256.Sum256(p.AppendState(nil))
			key := cfg.Name + "/" + mode
			if got := hex.EncodeToString(sum[:]); got != want[key] {
				t.Errorf("%s: snapshot sha256 %s, want %s", key, got, want[key])
			}
		}
	}
}
