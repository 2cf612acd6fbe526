package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/trace"
)

// pinRecords is how many leading records of each suite trace the
// generator-stream pins cover.
const pinRecords = 20_000

// pinnedStreams maps every suite trace to the SHA-256 of its first
// pinRecords records, each hashed as PC (8 bytes LE), Taken (1 byte) and
// Instr (4 bytes LE). The constants were recorded from the generating
// reader before outcome replay existed; any change to a behavior, to the
// block scheduler, to the random-stream derivation or to the replay memo
// that alters a single record shows up here.
var pinnedStreams = map[string]string{
	"FP-1":          "4db95d4c1447aab1c7202631c2619acaab497634c527624f6e7400b60ce91761",
	"FP-2":          "539fd3b61512e6fc5174ce7b880952ee39e6087cdfedc593c7eeee80329b646f",
	"FP-3":          "c6cfc0e070115daaa893d418d2b22d888dcf730e834d9e64eefecdc9509096c9",
	"FP-4":          "211e017411a93b24b3587af85505598f73ed1c2f307ce032e9b5a1b6aec628d4",
	"FP-5":          "21e6cefa6a1c997b4a5f588a1f8834592e1d9ab03149921b42cb97238c98bc88",
	"INT-1":         "15609ff797be70871bb9dca3d661d38330e45bdd4f5f8d8a2624ece259041df7",
	"INT-2":         "8ac091ab528045a437f4d6bb12b2f58875990879ddb716a3b15375e52688dcde",
	"INT-3":         "17aa52182f22bda3cce6e676f5ddf83add60ae824ce988f32c413e77d84ae138",
	"INT-4":         "93c736299a18f561616771328f73d20dd723bcddfd51285f6eb106acbad808ea",
	"INT-5":         "aa0cc29012c1708ec49ed7ecf01fa3166ded8688dd8a18ad7bd913390d50ed5f",
	"MM-1":          "b14374feaa97a61c6c72731ecc96e20e79871edc1b1ae703cb43529dd4aa9a41",
	"MM-2":          "2e7ce2beb8425cea2696319ff8054ece5446b6f1c9767e298782a6f6970bf97f",
	"MM-3":          "7650dc4540ce3f6244eda1004f3bbd64ccac15bb1f209a35f9d63054e6565e5c",
	"MM-4":          "47994035064c6e6be861f6d9cff2629627187d07843d18238d5305773abc5eb4",
	"MM-5":          "59916135f66c42c9cb4f71e4a1f60afe0b7d03d634f470f3955ec9b7d59c7825",
	"SERV-1":        "05c2d5891a7c5fdd71120e6cc82f7f9e581363a543f7144274e23ef40a183c78",
	"SERV-2":        "7ce2bc757a258f4d19248814d33bd045b33193acfa3f1d02df00785fecafafa2",
	"SERV-3":        "25e2a4394768f66bd7898358c87ebebb86cb266f5d742d2db0721675bcb78f42",
	"SERV-4":        "d020173e3564f8a8ce10de90ba7e5115504c7c72eaf953fbacd49a1b1e13d7a2",
	"SERV-5":        "f182ab64f9975b2a27f6e99a91a789e6663e319600aeea309e411ffbce91f70e",
	"164.gzip":      "e00889b599cdc289a1b9f1e675c8ff9e1b466911373d00109a7e875fa9aef372",
	"175.vpr":       "635dd7012564eaf04f1875d683f39837f1845a9aaa49474b1f7ac515c58df5b7",
	"176.gcc":       "8bcd318a9891b27b033f9d277863f67404040d1d55b9b2d50ef5f7a8690e6a43",
	"181.mcf":       "3697d5426a08ef3e0935cacc0b5056b24d036534de7f0c68394163a8b28e7642",
	"186.crafty":    "92885e0fcd137b1f51b38ccd032fc5a5b57560c3399422ba65c533a2269dacad",
	"197.parser":    "e9ffee037c5cb5bd28393892bcda61b79f4ad514e9b252d5897d74d0ac3eedd2",
	"201.compress":  "9affa50e303992d7b37574890f2c5fea3f1ad2db523bdbed5178bc5c3b8f7155",
	"202.jess":      "ae3763aeb5da7d3199087f9dad226b9ebf4eb61003f316ed57d404b550a5583b",
	"205.raytrace":  "175a31859f21ab0c5fed51e3969a1027f3a37dc72514df022a88741bb0d62b3a",
	"209.db":        "8c4af56d2486d7a9cce51a0fbb516538b92f05b54da1262c1b1e53cba1a9838b",
	"213.javac":     "fe01e4edf0f7c73b5f6768cf32e0e568ed0fbd5273a042933742854e78fe3789",
	"222.mpegaudio": "dd8493cc8b7cd6a035f30177cd0b0a253cdebcf0a79c803e8b6b3853827a786c",
	"227.mtrt":      "75026ec2721bbba2cd43b805e67a191d6736087d8f73ad70e22fe6e7a2d786e1",
	"228.jack":      "b5240e25e8ed28732c8ac277540aa748b3d5fadf412fb1a10eaeb48cee4da323",
	"252.eon":       "16d626bd23486683419c3941c6a895e07b0aa532a8c207578981b12a406ac5de",
	"253.perlbmk":   "b0ce272a7f332ec9d0e2736c59491241d7cd48b578b9ee6afa235bae37f1ceab",
	"254.gap":       "3d41579bdbd2da8cc3f52ed7649c11debb375da90aaffbfbbc4c6d828c1352a6",
	"255.vortex":    "263245ac484b7038bd1a9c4f014f221cf163e12fda49b2c39327ab0972757f2e",
	"256.bzip2":     "c85958c001491398500a7be775160b407666ee993439172f1484ffc31fb64415",
	"300.twolf":     "ac6a1c2ed168876c98fcb92b15dea301516361f0386874443327f658c58612ee",
}

// streamHash hashes the first n records of one pass over tr.
func streamHash(t testing.TB, tr trace.Trace, n uint64) string {
	t.Helper()
	h := sha256.New()
	var buf [13]byte
	r := trace.Limit(tr, n).Open()
	got := uint64(0)
	for {
		b, err := r.Next()
		if err != nil {
			break
		}
		binary.LittleEndian.PutUint64(buf[0:8], b.PC)
		buf[8] = 0
		if b.Taken {
			buf[8] = 1
		}
		binary.LittleEndian.PutUint32(buf[9:13], b.Instr)
		h.Write(buf[:])
		got++
	}
	if got != n {
		t.Fatalf("%s: read %d records, want %d", tr.Name(), got, n)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorStreamPinned checks every suite trace against its pinned
// hash twice: first on a freshly built Program whose records are all
// generated, then again on the same Program, whose second pass replays
// the outcome memo the first pass published.
func TestGeneratorStreamPinned(t *testing.T) {
	specs := append(cbp1Specs(), cbp2Specs()...)
	if len(specs) != 40 {
		t.Fatalf("%d suite specs, want 40", len(specs))
	}
	for _, s := range specs {
		p := buildSpec(s)
		want, ok := pinnedStreams[p.Name()]
		for _, pass := range []string{"cold", "warm"} {
			got := streamHash(t, p, pinRecords)
			if !ok {
				t.Errorf("%q: %q, // no pin (%s)", p.Name(), got, pass)
				continue
			}
			if got != want {
				t.Errorf("%s (%s pass): stream hash %s, want %s", p.Name(), pass, got, want)
			}
		}
	}
}
