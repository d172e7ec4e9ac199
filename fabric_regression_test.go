package himap_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"himap"
)

// defaultFabricFingerprints pins the exact mappings the default fabric
// (mesh topology, every PE memory-capable) produces for the eight
// evaluation kernels on an 8x8 array. The hashes were captured before the
// Fabric refactor; the refactor (and any future change) must reproduce
// them bit-identically. The fingerprint is built from the canonical
// instruction rendering (Instr.String), the II, and the load/store I/O
// specs — deliberately not the raw JSON bytes, so representation-only
// changes (e.g. widening OutSel for diagonal links) don't disturb it as
// long as the mapping itself is unchanged.
var defaultFabricFingerprints = map[string]string{
	"ADI":  "4be75e3ecacdf7c9bd77223743241a082b8469bde26367d7cf2ded54b323a0cc",
	"ATAX": "10c91fa59bf58021cd04346eb043291218cae9805275e1b04c163c79aafdd0b7",
	"BICG": "f989d64f152302206e1678d3e39301462654623fd4e270dd05722cf30c277452",
	"MVT":  "1b33b8638fc10c73bcc85ce86f4fa9b1416aff0f028ca85fef27014a1407253d",
	"GEMM": "e92f7854f63143875896692d070a6f34663eb9d2fff92dd61e79e827939b9eb1",
	"SYRK": "8d59d8f6d4454f1438d5e78570271cda6aab8333059082d344a7d94530102b8b",
	"FW":   "bb5b461d9ff1f8380f1ec0f63fcef4afb26a75cc2b32e9dd1ce076905967ac8a",
	"TTM":  "1bbfb68601054333cc6bb7c68a035f6c171aa1422678e47dacf1b4b3bc99dc88",
}

func mappingFingerprint(cfg *himap.Config, rows, cols int) string {
	h := sha256.New()
	fmt.Fprintf(h, "ii=%d\n", cfg.II)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			for t := 0; t < cfg.II; t++ {
				in := *cfg.At(r, c, t)
				in.Comment = ""
				fmt.Fprintf(h, "r%d c%d t%d %s\n", r, c, t, in.String())
			}
		}
	}
	for _, l := range cfg.Loads {
		fmt.Fprintf(h, "load %+v\n", l)
	}
	for _, s := range cfg.Stores {
		fmt.Fprintf(h, "store %+v\n", s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDefaultFabricBitIdentical is the regression anchor for the Fabric
// refactor: the default fabric must keep producing exactly the mappings
// the homogeneous-mesh model produced.
func TestDefaultFabricBitIdentical(t *testing.T) {
	for _, k := range himap.EvaluationKernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			r, err := compile(k, himap.DefaultCGRA(8, 8), himap.Options{})
			if err != nil {
				t.Fatalf("Compile(%s): %v", k.Name, err)
			}
			got := mappingFingerprint(r.Config, 8, 8)
			want := defaultFabricFingerprints[k.Name]
			if want == "" {
				t.Fatalf("no golden fingerprint for %s; capture: %q", k.Name, got)
			}
			if got != want {
				t.Errorf("%s: mapping fingerprint drifted\n got %s\nwant %s", k.Name, got, want)
			}
		})
	}
}

// conventionalJSONFingerprints pins the SHA-256 of the saved
// configuration JSON the conventional backend emits for the eight
// evaluation kernels on a 4x4 mesh, block 2 per dimension, seed 7, one
// annealing chain. Unlike conventionalFingerprints it covers the
// provenance comments ("n<ID>") too, so the emitter's value tags must
// render byte-identically, not just map to the same fields.
var conventionalJSONFingerprints = map[string]string{
	"ADI":  "503f680e8fa6682cdabceb79d8a592e78b714f98e72082ca4cd54de125b45b6a",
	"ATAX": "79a96efbab287d60ef1f63309f1530cdee85c781d120b80f8ee6924e7766dfc5",
	"BICG": "1e52325105ce4587e1de8e006481608eaf3a42d02ddfb97951d1ef9bd7e30755",
	"MVT":  "59ab877fe0fca394749dfdf10d4d53e8fb9094079bd220c9a197d59b774fac39",
	"GEMM": "2f9cf4e5e166b7e2937a62a50be3be1ce1dd026d449425b225aaeca0476155d4",
	"SYRK": "5077862bdc38c1ea92d162e7b2190dad1eb934eeefc14309d2a969183a507be3",
	"FW":   "d134a3d9aeab26d32810fe5302a4ffb98e5c3e8c0f290128891b754cdccbebdb",
	"TTM":  "f2cc1d21f8bfbc8eb45676ba4c9e544560d15026c88298bd7f73e6b1fb5c72bc",
}

func TestConventionalJSONBitIdentical(t *testing.T) {
	for _, k := range himap.EvaluationKernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			r, err := compileBaseline(k, himap.DefaultCGRA(4, 4), k.UniformBlock(2),
				himap.BaselineOptions{Seed: 7, Workers: 1})
			if err != nil {
				t.Fatalf("conventional %s: %v", k.Name, err)
			}
			var b bytes.Buffer
			if err := himap.SaveConfig(r.Config, &b); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b.Bytes())
			if got, want := hex.EncodeToString(sum[:]), conventionalJSONFingerprints[k.Name]; got != want {
				t.Errorf("%s: configuration JSON drifted\n got %s\nwant %s", k.Name, got, want)
			}
		})
	}
}
