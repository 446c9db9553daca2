package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestMeasurementCellFormats pins the cell format of every unit,
// including sec54's wall-clock "us" cells, which the table digests
// mask.
func TestMeasurementCellFormats(t *testing.T) {
	for _, c := range []struct {
		unit  string
		value float64
		want  string
	}{
		{unitRatio, 1, "1.00x"},
		{unitRatio, 3.604, "3.60x"},
		{unitRatio, 0.284, "0.28x"},
		{unitPct, 94.27, "94.3%"},
		{unitPct, -24.2, "-24.2%"},
		{unitRound, 93, "93"},
		{unitRound, -1, "-1"},
		{unitRound, 92.6, "93"},
		{unitKB, 10444.0 / 1024, "10.2 KB"},
		{unitUS, 4.7, "4.7 us"},
		{unitUS, 1000.0 / 3 / 1e3, "0.3 us"},
	} {
		if got := (measurement{unit: c.unit, value: c.value}).cell(); got != c.want {
			t.Errorf("%s %v: cell %q, want %q", c.unit, c.value, got, c.want)
		}
	}
}

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

// goldenRuns and goldenHits pin how many cells the cold registry run
// simulates and serves from the run cache: a cell that two tables name
// under different keys (a display name leaking into the key) shows
// here as more runs and fewer hits.
const goldenRuns, goldenHits = 156, 52

// goldenLabels is the number of leading label cells that address a
// row of each registry table: the labels Table.Value takes.
var goldenLabels = map[string]int{
	"fig1": 2, "fig2": 3, "fig3": 2, "fig4": 1, "fig5": 1, "fig6": 1, "fig7": 2,
	"fig9": 2, "fig10": 2, "fig11": 2, "fig12": 2, "tab5": 2, "sec54": 1,
	"abl-eps": 1, "abl-gm": 2, "abl-tables": 1, "abl-beta": 1, "abl-cold": 1,
}

// printsValue reports whether cell's number is within half a unit of
// its last printed digit of v.
func printsValue(cell string, v float64) bool {
	num := strings.TrimRight(strings.Fields(cell)[0], "x%")
	half := 0.5
	if i := strings.IndexByte(num, '.'); i >= 0 {
		half *= math.Pow10(i + 1 - len(num))
	}
	f, err := strconv.ParseFloat(num, 64)
	return err == nil && (f == v || math.Abs(f-v) <= half*(1+1e-9))
}

// checkValues reads every cell of tab through Value, addressing a row
// by its first lead cells: a label cell has no value, a cell with one
// prints it, a label prefix reads only when one row starts with it, and
// an unknown column or row reads nothing.
func checkValues(t *testing.T, tab Table, lead int) {
	t.Helper()
	if lead < 1 {
		t.Fatalf("%s: goldenLabels names no label cells", tab.ID)
	}
	sharing := func(prefix []string) (n int) {
		for _, r := range tab.Rows {
			if slices.Equal(r[:len(prefix)], prefix) {
				n++
			}
		}
		return n
	}
	for _, row := range tab.Rows {
		for c, col := range tab.Header {
			v, ok := tab.Value(col, row[:lead]...)
			if c < lead && ok {
				t.Errorf("%s %q: label cell %s holds value %v", tab.ID, row[:lead], col, v)
			}
			if ok && !printsValue(row[c], v) {
				t.Errorf("%s %q: %s prints %q, value %v", tab.ID, row[:lead], col, row[c], v)
			}
			for k := range lead {
				pv, pok := tab.Value(col, row[:k]...)
				if unique := sharing(row[:k]) == 1; pok != (ok && unique) || pok && pv != v {
					t.Errorf("%s %q: %s read through %q = %v, %v", tab.ID, row[:lead], col, row[:k], pv, pok)
				}
			}
		}
	}
	if _, ok := tab.Value("no such column", tab.Rows[0][:lead]...); ok {
		t.Errorf("%s: an unknown column reads a value", tab.ID)
	}
	if _, ok := tab.Value(tab.Header[lead], "no such row"); ok {
		t.Errorf("%s: an unknown row reads a value", tab.ID)
	}
}

// TestGoldenTableDigests also checks that every registry entry's
// table carries its registry id, passes checkValues, and is left
// unmasked by renderMasked.
func TestGoldenTableDigests(t *testing.T) {
	rt, err := NewRuntime(0, "")
	if err != nil {
		t.Fatal(err)
	}
	tables := runRegistry(t, rt)
	if st := rt.Stats(); st.Runs != goldenRuns || st.Hits != goldenHits {
		t.Errorf("cold registry run: %d cells simulated, %d served from cache; want %d and %d",
			st.Runs, st.Hits, goldenRuns, goldenHits)
	}
	for _, e := range Registry() {
		if id := tables[e.ID].ID; id != e.ID {
			t.Errorf("experiment %s produced table id %s", e.ID, id)
		}
		sum := sha256.Sum256([]byte(renderMasked(tables[e.ID])))
		if got, want := hex.EncodeToString(sum[:]), goldenTables[e.ID]; got != want {
			t.Errorf("%s: table digest %s, want %s:\n%s", e.ID, got, want, renderMasked(tables[e.ID]))
		}
		if strings.Contains(tables[e.ID].Markdown(), "<wall-clock>") {
			t.Errorf("%s: renderMasked masked its input table", e.ID)
		}
		checkValues(t, tables[e.ID], goldenLabels[e.ID])
	}
}
