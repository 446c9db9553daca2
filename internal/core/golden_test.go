package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"fedgpo/internal/core"
	"fedgpo/internal/exp"
	"fedgpo/internal/fl"
	"fedgpo/internal/workload"
)

// goldenDigests pins, per case, the SHA-256 of a warm-up's encoded
// snapshot, of a cold controller's decision trace and table stats, and
// of the decision trace of a controller restored from that snapshot.
// Each case runs the realistic scenario (co-runner interference,
// unstable network, auto deadline) for 60 rounds on 50 devices.
var goldenDigests = map[string][3]string{
	"CNN-MNIST/shared": {
		"bc863bcaf8d43188b56f08c8fb801846e40c83271a853ff4b1d47dbfc3f221bf",
		"5b631719aa6695d340a7c8b511ee83309f41a085c75202485c4f5a1dd4ffbeb1",
		"36ffc36309aaed5477212137857ddd21ef13d8bf2d33cb8577d13fafc17ab750",
	},
	"CNN-MNIST/per-device": {
		"8f3c2eb8fc2c1189cd8cedc5114ea8a24c0c2576b6582d5cceb56976f67c376e",
		"a2b2d7775494747d9d038afa9fbc7a2449c10bf949e57993cbd3f5156c030ea6",
		"4263389a6cfe40a254eac38b8392625bcd6538b3308900306e2e2e0cb57963d8",
	},
	"LSTM/shared": {
		"a41dc3c67201e3bce16eadd778e8517fdeeda6e4dc5291e6a332af0702e9720f",
		"f13e8441ac3083416b59bc5b54a1ed0406271fc3f25d1a3d9d0185c255beac8f",
		"007774e7b4ceb3386a8f12ea8d956dece0b92e4b42f5d60a1c4206b796d66ee1",
	},
	"LSTM/per-device": {
		"785665f16234137faed3eae6a5534ad190f6f78b33f3a92ed02d3fb7fda039de",
		"7db1576a1aa3c4e7825dbedffd4b57400f28d882b988181def34efb1f7d2667a",
		"87c68db96e36c5c789e6e0b416f4e27fb68fec62691bd55e7703cc38ae650506",
	},
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func traceDigest(t *testing.T, c *core.Controller, extra ...any) string {
	t.Helper()
	b, err := json.Marshal(c.DecisionTrace())
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range extra {
		b = fmt.Appendf(b, "|%+v", x)
	}
	return digest(b)
}

// The controller's tables, snapshots and decisions are pinned bit for
// bit at unit level: any change to how states, tables or Q rows are
// addressed must leave every digest as it is. Each case also runs
// cold and warm untraced, which must give the traced runs' results.
func TestGoldenControllerDigests(t *testing.T) {
	workloads := map[string]workload.Workload{
		"CNN-MNIST": workload.CNNMNIST(),
		"LSTM":      workload.LSTMShakespeare(),
	}
	for name, want := range goldenDigests {
		t.Run(name, func(t *testing.T) {
			wname, tables, _ := strings.Cut(name, "/")
			s := exp.Realistic(workloads[wname])
			s.Fleet.Size = 50
			s.MaxRounds = 60
			cfg := core.DefaultConfig()
			cfg.PerDeviceTables = tables == "per-device"

			snap := core.PretrainSnapshot(cfg, s.Config(997))
			run := func(c *core.Controller, seed int64, trace bool) []byte {
				if trace {
					c.EnableTrace()
				}
				b, err := fl.Run(s.Config(seed), c).AppendBinary(nil)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}

			cold := core.New(cfg)
			coldRes := run(cold, 1, true)
			warm := core.FromSnapshot(cfg, snap)
			warmRes := run(warm, 2, true)

			got := [3]string{
				digest(snap.AppendBinary(nil)),
				traceDigest(t, cold, cold.Stats(), cold.RewardHistory()),
				traceDigest(t, warm, warm.Stats()),
			}
			if got != want {
				t.Errorf("digests changed:\n got %q\nwant %q", got, want)
			}

			// Tracing is strictly observational: the same runs untraced
			// produce the same result bytes.
			if !bytes.Equal(run(core.New(cfg), 1, false), coldRes) {
				t.Error("untraced cold run's result differs from the traced run's")
			}
			if !bytes.Equal(run(core.FromSnapshot(cfg, snap), 2, false), warmRes) {
				t.Error("untraced warm run's result differs from the traced run's")
			}
		})
	}
}
