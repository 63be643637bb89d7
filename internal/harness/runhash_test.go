package harness

import (
	"context"
	"encoding/hex"
	"fmt"
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/workloads"
)

// runHashCase is one pinned run identity.
type runHashCase struct {
	name string
	app  string
	size workloads.Size
	m    config.Machine
}

// runHashCases lists every preset (SMT8 among them) on both machines at
// both sizes, one dynamic-policy machine, and an app name that needs
// quoting.
func runHashCases() []runHashCase {
	var cs []runHashCase
	for _, a := range append([]config.Arch{config.SMT8}, config.AllArchs...) {
		for _, m := range []config.Machine{config.LowEnd(a), config.HighEnd(a)} {
			for _, size := range []workloads.Size{workloads.SizeTest, workloads.SizeRef} {
				cs = append(cs, runHashCase{fmt.Sprintf("%s/%s", m.Name, size), "ocean", size, m})
			}
		}
	}
	dyn := config.HighEnd(config.SMT2)
	dyn.Alloc = config.AllocConfig{Policy: "icount", Epoch: 2000}
	cs = append(cs, runHashCase{"high-end/SMT2+icount@2000/ref", "swim", workloads.SizeRef, dyn})
	cs = append(cs, runHashCase{"low-end/SMT2/test quoted app", "a \"b\"\nc", workloads.SizeTest, config.LowEnd(config.SMT2)})
	return cs
}

// runHashPins are the digests the fmt-based encoder wrote before the
// key became an append-only byte encoding. A result log on disk is
// keyed by these bytes, so they must not move.
var runHashPins = map[string]string{
	"low-end/SMT8/test":             "83164bfd815bb735ab4ab66f9a9284312edb852bd261b5a3c3f35f728a610bf7",
	"low-end/SMT8/ref":              "a1a6df74496634b2a4693a2d12a171bd6e880214b2ce15ec3578f3bcc22cf7c6",
	"high-end/SMT8/test":            "5295b3108235585a08fb69094ad2e70ffa82047ff4102935d9cda5fe02876ca8",
	"high-end/SMT8/ref":             "3747779e714bf6bed4a93b400784e03a2de5eaf6f86f86daef2aa0a9a8ac2090",
	"low-end/FA8/test":              "83164bfd815bb735ab4ab66f9a9284312edb852bd261b5a3c3f35f728a610bf7",
	"low-end/FA8/ref":               "a1a6df74496634b2a4693a2d12a171bd6e880214b2ce15ec3578f3bcc22cf7c6",
	"high-end/FA8/test":             "5295b3108235585a08fb69094ad2e70ffa82047ff4102935d9cda5fe02876ca8",
	"high-end/FA8/ref":              "3747779e714bf6bed4a93b400784e03a2de5eaf6f86f86daef2aa0a9a8ac2090",
	"low-end/FA4/test":              "8db8cc7f18b7d10f42908e453d19a7f45012bbb9d37dc6a660d598e9c9132c2a",
	"low-end/FA4/ref":               "0bde3dab0f33c2af62c894a4eaa7da6501010d21bf9e3338de0a6f6791538641",
	"high-end/FA4/test":             "dd7b7f4714f475653ef190f56cc08e5ed2ba0ad0a31a5ee3d6b947c4a92d345c",
	"high-end/FA4/ref":              "1d05d9ea3f21dea916fdaa35544ba92d8ef6b689d6a127a64dd87a6f98a93b7b",
	"low-end/FA2/test":              "c8b03974d56970235a29ea88769570269a1771a9533d98f394133049911ee012",
	"low-end/FA2/ref":               "8a3619e6c47bd8dd09508f5ebfb06ca5d4ec2c2be96b73aea27db100588684fc",
	"high-end/FA2/test":             "fb2c465359730357b0131e25e3ea95c658981634070cb83c5b0baeb836d6f4bd",
	"high-end/FA2/ref":              "aed81b711ad81519b3a2e384ca6ad5a4b0e074ee39422c71fcb167531a2bfd8e",
	"low-end/FA1/test":              "e2e77758fc3a3cb0a3667c45374883aaa64859d581cb9ed032e862479e29a2d8",
	"low-end/FA1/ref":               "20d2b28ba0b026d435d2ae269ffd57f58e5e5b13a18e9fe38b301b8b02231658",
	"high-end/FA1/test":             "33cd3406835734262f1b9995475363cab3161416b893b041f387aeca71d85964",
	"high-end/FA1/ref":              "9dbe2d61605f49f1e2c71b8926cf3cd82157b5f95e73e916008a0c61124db9c2",
	"low-end/SMT4/test":             "6d290af92643fb13de965773b0486e79f16f791f9d6e426c894ebb4663c2efe2",
	"low-end/SMT4/ref":              "cade6bdcf84ebbdcfba94dbd5322d1cbc7469801e150e89672955800bc460135",
	"high-end/SMT4/test":            "48e34db527d52b9162baa8155a60b110654eff7340bf97e13e1da5d978d1452e",
	"high-end/SMT4/ref":             "990c5524f84c779aa5f9e7411883631da038fb0193b2aef94bccddddb14aa5f4",
	"low-end/SMT2/test":             "b2cadcaca6d875cd21820e0c9932edf47b5dcb90e75ea92ce6ac0a552ca2a376",
	"low-end/SMT2/ref":              "9ad15f1bb299cd148d8610d773e9e2331255376ecdd5b8666aceb13fd3a277ba",
	"high-end/SMT2/test":            "aea208fc60d50d9d8be9253ff6771aefb177a1ec9765f227ba515336570b2773",
	"high-end/SMT2/ref":             "48312595230c4eb807f4d3b1cdfe9f4b0be0f9cf1e3addd391a166ff918b03a5",
	"low-end/SMT1/test":             "60fa1cc744ff203d56e65f2315727dd448acd84390371c2cf6048c452dc1d378",
	"low-end/SMT1/ref":              "85d4700b02ee4975a70ab80d2453ba450466f4d2d7a311bd8ea52baafa475e82",
	"high-end/SMT1/test":            "051e37333ad5e27249475cec1cb75ec2d2221b6d8ff50f7162aecb4423861e36",
	"high-end/SMT1/ref":             "b8889a24958b4f972a135ce02f771fba3aa122dd39006ba2a575f3fb51848a78",
	"high-end/SMT2+icount@2000/ref": "450b331545544d6642e4da1aa53da1fae3efd80453382f33a461402bf5245af8",
	"low-end/SMT2/test quoted app":  "7616e933c7ff376fcf72ce670e6fc97535db5e8e4172259f51aaa17e3f70fcad",
}

// TestRunHashPinned holds RunHash to the pinned digests.
func TestRunHashPinned(t *testing.T) {
	for _, c := range runHashCases() {
		h := RunHash(c.app, c.size, c.m)
		got := hex.EncodeToString(h[:])
		if want := runHashPins[c.name]; got != want {
			t.Errorf("%s: RunHash = %s, want %s", c.name, got, want)
		}
	}
}

// runHashSink keeps a measured hash live.
var runHashSink [32]byte

// TestRunHashAllocs holds the key to the stack: a memo hit hashes on
// every call, so RunHash must allocate nothing.
func TestRunHashAllocs(t *testing.T) {
	m := config.HighEnd(config.SMT2)
	m.Alloc = config.AllocConfig{Policy: "symbiosis"}
	if n := testing.AllocsPerRun(100, func() { runHashSink = RunHash("ocean", workloads.SizeRef, m) }); n != 0 {
		t.Fatalf("RunHash allocates %v times per call, want 0", n)
	}
}

func BenchmarkRunHash(b *testing.B) {
	m := config.HighEnd(config.SMT2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runHashSink = RunHash("ocean", workloads.SizeRef, m)
	}
}

// BenchmarkSuiteMemoHit is Suite.Run on a cell the memo already holds.
func BenchmarkSuiteMemoHit(b *testing.B) {
	s := NewSuite(workloads.SizeTest)
	w, err := workloads.ByName("swim")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.RunContext(ctx, w, config.SMT2, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunContext(ctx, w, config.SMT2, false); err != nil {
			b.Fatal(err)
		}
	}
}
