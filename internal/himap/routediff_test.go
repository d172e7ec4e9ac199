package himap

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"himap/internal/arch"
	"himap/internal/kernel"
)

// routerFingerprint renders a mapping to a canonical hash: the
// instruction stream (comments stripped), the II, and the load/store
// I/O specs — the same canonicalization the top-level fabric regression
// pins, so "byte-identical artifact" means the same thing in both.
func routerFingerprint(cfg *arch.Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "ii=%d\n", cfg.II)
	for r := 0; r < cfg.Fabric.Rows; r++ {
		for c := 0; c < cfg.Fabric.Cols; c++ {
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

// routerGolden pins the router's output on every evaluation kernel, on
// mesh and torus fabrics at 8x8 and 16x16: the routerFingerprint of the
// emitted mapping and its negotiated-congestion round count. The table
// was captured when the pre-A* global-heap Dijkstra core still lived in
// the tree and a differential test proved the A*+bucket-queue core
// bit-identical to it on all 32 entries, so it records what that
// Dijkstra emitted. The mesh 8x8 column matches the top-level
// defaultFabricFingerprints.
var routerGolden = []struct {
	kernel string
	topo   arch.Topology
	size   int
	rounds int
	fp     string
}{
	{"ADI", arch.TopoMesh, 8, 1, "4be75e3ecacdf7c9bd77223743241a082b8469bde26367d7cf2ded54b323a0cc"},
	{"ATAX", arch.TopoMesh, 8, 1, "10c91fa59bf58021cd04346eb043291218cae9805275e1b04c163c79aafdd0b7"},
	{"BICG", arch.TopoMesh, 8, 1, "f989d64f152302206e1678d3e39301462654623fd4e270dd05722cf30c277452"},
	{"MVT", arch.TopoMesh, 8, 2, "1b33b8638fc10c73bcc85ce86f4fa9b1416aff0f028ca85fef27014a1407253d"},
	{"GEMM", arch.TopoMesh, 8, 4, "e92f7854f63143875896692d070a6f34663eb9d2fff92dd61e79e827939b9eb1"},
	{"SYRK", arch.TopoMesh, 8, 4, "8d59d8f6d4454f1438d5e78570271cda6aab8333059082d344a7d94530102b8b"},
	{"FW", arch.TopoMesh, 8, 2, "bb5b461d9ff1f8380f1ec0f63fcef4afb26a75cc2b32e9dd1ce076905967ac8a"},
	{"TTM", arch.TopoMesh, 8, 4, "1bbfb68601054333cc6bb7c68a035f6c171aa1422678e47dacf1b4b3bc99dc88"},
	{"ADI", arch.TopoMesh, 16, 1, "14890cb1d001bd70fa009fab0a215670cfd5ed0d00560303ee8016196815135a"},
	{"ATAX", arch.TopoMesh, 16, 1, "5f9d09e336d08c01d6edf352d04a3f249623d381813b19fc2cb0c63311b2f1e6"},
	{"BICG", arch.TopoMesh, 16, 1, "6cde435a2030120374bd0c4c49e8173891d15e4b60bb642899215d9c92e07a82"},
	{"MVT", arch.TopoMesh, 16, 2, "189ed5a0e5eedaa11f1c7c073b7278b4eb21999ebc36a0b6548caeaf936b0eb7"},
	{"GEMM", arch.TopoMesh, 16, 4, "245e32979d1f3d1480d492c377ed345b04156b61246a308438c8ea0f2210de79"},
	{"SYRK", arch.TopoMesh, 16, 4, "1f14a8d0ee337b729f8972d44e275379f016675656eaf493ef9f6b5f8c9f0e49"},
	{"FW", arch.TopoMesh, 16, 2, "7f01eac7935f742e8a3908508350c6f36311630504e3b8fedc002b7c4c6da053"},
	{"TTM", arch.TopoMesh, 16, 4, "a95de5ffc92da5dfe7dc8850540f778433a91d57badaa6c431e407a928bcfd6f"},
	{"ADI", arch.TopoTorus, 8, 1, "4be75e3ecacdf7c9bd77223743241a082b8469bde26367d7cf2ded54b323a0cc"},
	{"ATAX", arch.TopoTorus, 8, 1, "1a2369dfbe82d0101bea60dd8dd715a4937497c15077e753a69d02c2f9259d1e"},
	{"BICG", arch.TopoTorus, 8, 1, "6e6c25e7e015673cc8c14ae0b656fd87aef23f6964a24f67cd702c6ce0ece404"},
	{"MVT", arch.TopoTorus, 8, 1, "3769fc876dae55bd1d8d46883ab6757678b72f56c3e2a4a8c7d957c64d883f16"},
	{"GEMM", arch.TopoTorus, 8, 3, "943234f285dbc6a5f1108a30750043d890577b3ded643530a80ef4c9ed28e0fe"},
	{"SYRK", arch.TopoTorus, 8, 3, "5f537de693b15160674de200c35c284af56f862d4eac24c9fcd5bf3d669a0178"},
	{"FW", arch.TopoTorus, 8, 2, "df1e26c860d586877a69cc0ac93e36e7315d7c02422572a899447dd1ea3778c5"},
	{"TTM", arch.TopoTorus, 8, 3, "1545675ec69783fbc25531078ee2a6438b98284c31a399910f3bec6a4157fc4e"},
	{"ADI", arch.TopoTorus, 16, 1, "14890cb1d001bd70fa009fab0a215670cfd5ed0d00560303ee8016196815135a"},
	{"ATAX", arch.TopoTorus, 16, 1, "de22dc7b8eab854a70bdd8aa02fb0c761b28e33091246a27892bdd1885320699"},
	{"BICG", arch.TopoTorus, 16, 1, "40987522340ef111bef076789dbed11596d60b609eefe580ed5335cecb125f11"},
	{"MVT", arch.TopoTorus, 16, 1, "1bf64937a5a11c375dfbb5a8f50a1b98aa64459ad9bf37dfd58d017cc0963395"},
	{"GEMM", arch.TopoTorus, 16, 3, "979bffad454242736e26a4a86bcf32a1bf10491a3c771943238eada74f45609e"},
	{"SYRK", arch.TopoTorus, 16, 3, "f8906ae6a0daa82685a94d6c315ce81271ca066d63d81989c490edd6551421c3"},
	{"FW", arch.TopoTorus, 16, 2, "72fa95144209fa7d8d2a2d6f40352d67ff43c0e8c287d31a818892b14d7ee54c"},
	{"TTM", arch.TopoTorus, 16, 3, "844a586c64737878b84e001c172ed6d9d8a6cf03e694d348a5e83d05ff10c990"},
}

// TestRouterDifferentialLegacyVsAStar is the bit-identity contract of
// the A* router against the retired Dijkstra core's recorded output
// (routerGolden): every evaluation kernel, on mesh and torus fabrics at
// 8x8 and 16x16, must emit exactly the recorded artifact — same
// instruction stream, same I/O specs — in the recorded number of route
// rounds.
func TestRouterDifferentialLegacyVsAStar(t *testing.T) {
	type key struct {
		kernel string
		topo   arch.Topology
		size   int
	}
	want := map[key]int{}
	for i, g := range routerGolden {
		want[key{g.kernel, g.topo, g.size}] = i
	}
	for _, topo := range []arch.Topology{arch.TopoMesh, arch.TopoTorus} {
		for _, size := range []int{8, 16} {
			if size == 16 && testing.Short() {
				continue
			}
			for _, k := range kernel.Evaluation() {
				k := k
				t.Run(fmt.Sprintf("%s/%s/%dx%d", k.Name, topo, size, size), func(t *testing.T) {
					gi, ok := want[key{k.Name, topo, size}]
					if !ok {
						t.Fatal("no golden entry")
					}
					g := routerGolden[gi]
					res, err := CompileFabric(k, arch.Fabric{CGRA: arch.Default(size, size), Topology: topo}, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if got := routerFingerprint(res.Config); got != g.fp {
						t.Errorf("mapping diverged:\n got %s\nwant %s", got, g.fp)
					}
					if res.Stats.RouteRounds != g.rounds {
						t.Errorf("route rounds %d, want %d", res.Stats.RouteRounds, g.rounds)
					}
				})
			}
		}
	}
}
