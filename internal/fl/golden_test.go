package fl_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"testing"

	"fedgpo/internal/device"
	"fedgpo/internal/exp"
	"fedgpo/internal/fl"
	"fedgpo/internal/workload"
)

// goldenRuns pins the SHA-256 of Result.AppendBinary for every
// (fleet size, scenario, controller) case below. The fleet sizes
// include 130, which is not a multiple of 64, so a per-device bitmap's
// partial last word is covered. Any change to how the round kernel
// reads device state, selects participants or accounts energy must
// leave every digest as it is.
var goldenRuns = map[string]string{
	"20/ideal/Fixed(4,20,10)":             "ca414a50550a9e8d8cec4b71a50060d125fcc868d78593d6512bbcadd7a2b915",
	"20/ideal/adaptive":                   "d6eda555e01e363bce20d57b16777c8a59df80722deff80af2cec24e73c2d34c",
	"20/realistic/Fixed(4,20,10)":         "0a9e9df58734874f549dbd39798860c28c21f0fec1e3b650f24fce6785e01181",
	"20/realistic/adaptive":               "65808663deb58a583d4a551995130351e98fb5036ac2bee8be5beb12cfa8fb31",
	"20/interference/Fixed(4,20,10)":      "0fda00afbd9723c2016b09ff56509cfd9a363926c73268e7f8c769383b6567c8",
	"20/interference/adaptive":            "fd9f01422060545ff0415f9d14dea5905e705e097efa8ce9e23b456a6594d190",
	"20/unstable-network/Fixed(4,20,10)":  "20f7de01f30e5d19f1135fbecfa9b4e1cd7c026277366d1cf8faddc9bd9d299d",
	"20/unstable-network/adaptive":        "66573636f3fd2dfadd9fa119a4ff7a4e0cb4bf06e2bb9a93d71bdbc74dc3bf51",
	"20/non-iid/Fixed(4,20,10)":           "cbce275f0f19f508fd9e28dad1c8e75b039ac533e478e99cf5245c82fd3667be",
	"20/non-iid/adaptive":                 "3c915e17f17b5d566ed251bb96287e1729060f5d3338100a54ffab375454d1ff",
	"20/non-iid-auto/Fixed(4,20,10)":      "9614b898b6431b93792b69a79c7a8a7ee2ffbeb1431233b58072d1db53110413",
	"20/non-iid-auto/adaptive":            "9a93e30eb40f80ba057dfaf6360c23d88ef3bfeb4d16df8d868a7d919dba3301",
	"130/ideal/Fixed(4,20,10)":            "17358186794db488f903127c3ae345b02a512f69e9a1fa4f7034b2aee0a743a8",
	"130/ideal/adaptive":                  "fe351a1f8c568710cf2387837defb9c5e038a737e9209e921a92b835dbb3fc12",
	"130/realistic/Fixed(4,20,10)":        "c633d20e867db137e2f1272324af3e0ecffa3274135c91355704da1520ec702d",
	"130/realistic/adaptive":              "46ad04130c9c9eaf29c6bf3867d2de626ed04a8e12c9795e85ff5ddd967cc3b5",
	"130/interference/Fixed(4,20,10)":     "4a711d7c7f2f01ac97f8176999dad243ba2475b8c2701dc4e735aae042a20f84",
	"130/interference/adaptive":           "53587deba57cb85041bf7d7c70f41e5bc3a866c69813f3b079ef2fed59425105",
	"130/unstable-network/Fixed(4,20,10)": "96774e4f455a36398d2760f5df611c737a766904fcd04433bd7c685b8fcce7ca",
	"130/unstable-network/adaptive":       "6d2bc02ee86dd82b29c475489e5801868617c29746b43e9dfc83a8bff1c23649",
	"130/non-iid/Fixed(4,20,10)":          "93ed3c145b70c157b8ac684997a14615c41332e455237393da00fe3363484957",
	"130/non-iid/adaptive":                "379056e08ecf82061563a722a264206a19d189ad78cf6c17e7638df38776262e",
	"130/non-iid-auto/Fixed(4,20,10)":     "0566aafd8b29140bd38623f298ed4a81c14b510b9d6008bfaf1e8b04b9805f6e",
	"130/non-iid-auto/adaptive":           "1c304e366b8bc78d4aad566897fa760c827d76e119704c00a7c9f5b6ce5ad7d1",
	"200/ideal/Fixed(4,20,10)":            "e0c69543cbaa8a04313d15f35aa85bc456a81ef4bf8ca1724b10095cda845c31",
	"200/ideal/adaptive":                  "3a3658169cf6bce1c232cda5b3dc07d3df794b6fc62e83e9935e74e47a999ac4",
	"200/realistic/Fixed(4,20,10)":        "9f9bf55e205e4b0c8f756848d75ff3c06940c0293ded57157fc07a62368996ab",
	"200/realistic/adaptive":              "3165220cd5db2c0ab9c88ee41816284838b7c439ee66052c83e23aa970c90972",
	"200/interference/Fixed(4,20,10)":     "aad028f5c9a40b924f3b2d67b8004a2534b73644dc68a418ad184d7b6818f3d8",
	"200/interference/adaptive":           "976ae20616f47aec580d5975921d8c2fac8ca6a684c721481a9d17a1521e15a0",
	"200/unstable-network/Fixed(4,20,10)": "cb7ccc825c9f3d53d4af0bdb034739e421f1e0db04001f504ecaa0386933dc3d",
	"200/unstable-network/adaptive":       "9593b288fc741587925334551767d321d4817691371ebdf44298d141f4f5c677",
	"200/non-iid/Fixed(4,20,10)":          "069c1b7c22249b0f3d30e7cc77158ee58af8405ea12a93a9263a41786546a37e",
	"200/non-iid/adaptive":                "28431f10dac9c7eaf3a01bec0c8060d23869f40e8dabcf9bf7904bcc1a6f8dc7",
	"200/non-iid-auto/Fixed(4,20,10)":     "032d4c54253378ef69bb0206bf41eeac40f589a71b797276d665792a346cf150",
	"200/non-iid-auto/adaptive":           "3ef53a9895bb4845722fdbb08bb5e43fe422f5c367b058695145ddff1efdb973",
}

// goldenScenarios are the ideal, realistic, interference,
// unstable-network and non-IID presets, plus the non-IID preset with
// an auto deadline.
func goldenScenarios(w workload.Workload) []exp.ScenarioSpec {
	nonIIDAuto := exp.NonIIDScenario(w)
	nonIIDAuto.Name = "non-iid-auto"
	nonIIDAuto.Deadline = exp.DeadlineSpec{Kind: exp.DeadlineAuto}
	return []exp.ScenarioSpec{
		exp.Ideal(w),
		exp.Realistic(w),
		exp.InterferenceOnly(w),
		exp.UnstableNetworkOnly(w),
		exp.NonIIDScenario(w),
		nonIIDAuto,
	}
}

// adaptive is a test controller whose K depends on the observation's
// fleet counts and whose per-device (B, E) depend on every field of
// the device state it is given, so a state read wrong for any
// participant moves the digest.
type adaptive struct{}

func (adaptive) Name() string { return "adaptive" }

func (adaptive) Plan(obs fl.Observation) fl.Plan {
	k := 2 + (obs.Interfered*7+obs.BadLinks*3+obs.Round)%19
	return fl.Plan{K: k, Local: adaptiveLocal}
}

func (adaptive) Observe(fl.RoundResult) {}

var bValues, eValues = fl.BValues(), fl.EValues()

func adaptiveLocal(d *device.Device, st *fl.DeviceState) fl.LocalParams {
	b := int(st.Interference.CPUUsage*10) + int(st.Network.Signal) + st.ClassCount + d.ID
	e := int(st.Interference.MemUsage*10) + int(st.Network.BandwidthMbps/10) +
		st.Samples%7 + int(st.ClassFraction/10) + int(d.Profile.Category)
	return fl.LocalParams{B: bValues[b%len(bValues)], E: eValues[e%len(eValues)]}
}

func TestGoldenRunDigests(t *testing.T) {
	got := map[string]string{}
	for _, size := range []int{20, 130, 200} {
		for _, s := range goldenScenarios(workload.CNNMNIST()) {
			s.Fleet.Size = size
			s.MaxRounds = 40
			cfg := s.Config(7)
			cfg.StopAtConvergence = false
			for _, ctrl := range []fl.Controller{fl.NewStatic(fl.Params{B: 4, E: 20, K: 10}), adaptive{}} {
				name := fmt.Sprintf("%d/%s/%s", size, s.Name, ctrl.Name())
				b, err := fl.Run(cfg, ctrl).AppendBinary(nil)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				got[name] = hex.EncodeToString(sum[:])
				if want := goldenRuns[name]; got[name] != want {
					t.Errorf("%s: digest %s, want %s", name, got[name], want)
				}
			}
		}
	}
	if len(got) != len(goldenRuns) {
		t.Errorf("ran %d cases, %d pinned", len(got), len(goldenRuns))
	}
	if t.Failed() {
		for _, name := range slices.Sorted(maps.Keys(got)) {
			t.Logf("%q: %q,", name, got[name])
		}
	}
}
