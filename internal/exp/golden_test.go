package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenTables pins the SHA-256 of every registry table's masked
// markdown (renderMasked: sec54's wall-clock cells blanked) at
// registryOptions. A change that moves one byte of any table, a
// renamed header, a swapped column or a re-rounded cell, fails here.
var goldenTables = map[string]string{
	"fig1":       "a65eb12ffc2daa212d949588c9ce59e8c2547e9596bc33e106b9055340d261c7",
	"fig2":       "883abbee2db131d76725f8a3b133fca6fe373661615db6d09696d082fd6832a4",
	"fig3":       "ce58cb3633eccda7de103f871d95eb545afcd19a2274821eb8992ab65e519c92",
	"fig4":       "e53466bf14c93b960372678a94e575b8c4f9694b10e617c39b219e5d3bc7dff5",
	"fig5":       "d2915dd37a2e1700ff892a137f8a20a4f47a1f3f160b77f8bbe3f298d203b5c6",
	"fig6":       "4ad16b391d800142f8bd8d4468a64baeff891a3f9c6a24f0b180836e026a5aa2",
	"fig7":       "3d9caabddf7c642c2dcdb0cc5ce7c6f17f44e686856c774899b71411abf35c71",
	"fig9":       "819ec51c8fe126a79663cd48204243e533a70017844e40d41abc2e06def85471",
	"fig10":      "cab15509d1e8080f753fe83713f6798c00a882bd040437115bc2be9eddbaef06",
	"fig11":      "5c5c3c4e3588141d86f9ea4ee1bf41bbeffc31db12912f80cbb863a4d6bc90fd",
	"fig12":      "5dea4a990a2caa705a6daed92038e1bb93fffb4ba613ccac671361cd0b1033f6",
	"tab5":       "eeeba828ca412f66516b28dd0f6895e0f198b97e1de5e4067fcabc433a5450ec",
	"sec54":      "d752eb7e516c549036a1590659faa706c791e893dd5fbf377d6e3913019cfea6",
	"abl-eps":    "b87b78625f28ee73d86346f3b84524f26af2d450acfa6744f32467b38c1b3f0b",
	"abl-gm":     "5797caef36e9b0e21a40e3b1ff3a9e0eb71d0e236a7f31510248e9d9b7a3da10",
	"abl-tables": "77fbf5e85b26fc7a79a0c5e065de65f0f9e68395e56bbde2c38d7fa3d11dc419",
	"abl-beta":   "8aaf41e019dd5cd44d48c5fb2fe919e24452de665b37718041fffd72574cb7d8",
	"abl-cold":   "6de5933032de354959523b1e7bd5dc66dbb7466cb796f591d5b239942def02dc",
}

func TestGoldenTableDigests(t *testing.T) {
	rt, err := NewRuntime(0, "")
	if err != nil {
		t.Fatal(err)
	}
	tables := runRegistry(t, rt)
	for _, e := range Registry() {
		sum := sha256.Sum256([]byte(renderMasked(tables[e.ID])))
		if got, want := hex.EncodeToString(sum[:]), goldenTables[e.ID]; got != want {
			t.Errorf("%s: table digest %s, want %s:\n%s", e.ID, got, want, renderMasked(tables[e.ID]))
		}
	}
}
