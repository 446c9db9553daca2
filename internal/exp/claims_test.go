package exp

import (
	"math"
	"testing"
)

// A claim's verdict over a one-row table, for each kind's band: below
// Lo, at each bound, inside and above Hi fail or pass as the band
// says; a NaN cell, a row that is not there, a read with no value (0/0)
// and another table's id are unmeasured.
func TestClaimVerdict(t *testing.T) {
	tabOf := func(id string, v float64) Table {
		tb := Table{ID: id, Header: []string{"label", "v"}}
		tb.add(row{labels: []string{"row"}, ms: []measurement{{value: v, unit: unitRatio}}})
		return tb
	}
	tab := func(v float64) Table { return tabOf("t", v) }
	on := func(c Claim) Claim {
		c.Table = "t"
		return c
	}
	v := at("v", "row")
	factorOne := on(factor("one", "%gx", v, 2))
	factorRange := on(factor("range", "%g-%g", v, 30, 40))
	accuracy := on(points("accuracy", v, 94, 95))
	ahead := on(order("ahead", "", v))
	for _, c := range []struct {
		claim  Claim
		lo, hi float64
		text   string
	}{
		{factorOne, 1, 4, "2x"},
		{factorRange, 15, 80, "30-40"},
		{accuracy, 89, 100, "~94-95%"},
		{ahead, 1, math.Inf(1), ""},
	} {
		if c.claim.Lo != c.lo || c.claim.Hi != c.hi || c.claim.Text != c.text {
			t.Errorf("%s: band [%g, %g] text %q, want [%g, %g] %q",
				c.claim.Name, c.claim.Lo, c.claim.Hi, c.claim.Text, c.lo, c.hi, c.text)
		}
	}
	for _, c := range []struct {
		name  string
		claim Claim
		table Table
		want  string
	}{
		{"below Lo", factorOne, tab(0.99), verdictFail},
		{"at Lo", factorOne, tab(1), verdictPass},
		{"inside", factorOne, tab(2), verdictPass},
		{"at Hi", factorOne, tab(4), verdictPass},
		{"above Hi", factorOne, tab(4.01), verdictFail},
		{"range below Lo", factorRange, tab(14.9), verdictFail},
		{"range at Hi", factorRange, tab(80), verdictPass},
		{"points at Lo", accuracy, tab(89), verdictPass},
		{"points below Lo", accuracy, tab(88.9), verdictFail},
		{"order below 1", ahead, tab(0.999), verdictFail},
		{"order at 1", ahead, tab(1), verdictPass},
		{"order at +Inf", ahead, tab(math.Inf(1)), verdictPass},
		{"NaN cell", factorOne, tab(math.NaN()), verdictUnmeasured},
		{"row not read", on(factor("missing", "%gx", at("v", "other row"), 2)), tab(2), verdictUnmeasured},
		{"0/0", on(order("0/0", "", ratio(v, v))), tab(0), verdictUnmeasured},
		{"another table", factorOne, tabOf("u", 2), verdictUnmeasured},
	} {
		if got := c.claim.verdict(c.table); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if factorOne.holds(math.NaN()) || ahead.holds(math.NaN()) {
		t.Error("NaN holds a claim")
	}
}

// Every claim names a registry table, is unique within it, is marked
// unconfirmed, has a band, and reads a value at registryOptions, except
// a claim on a row its table may omit.
func TestEveryClaimReads(t *testing.T) {
	rt, err := NewRuntime(0, "")
	if err != nil {
		t.Fatal(err)
	}
	tables := runRegistry(t, rt)
	seen := make(map[string]bool)
	for _, c := range Claims() {
		id := c.Table + "/" + c.Name
		tab, ok := tables[c.Table]
		switch {
		case !ok:
			t.Errorf("%s: no registry table %s", id, c.Table)
		case seen[id]:
			t.Errorf("%s: named twice", id)
		case !c.Unconfirmed || c.Source == "":
			t.Errorf("%s: unconfirmed %v, source %q", id, c.Unconfirmed, c.Source)
		case !(c.Lo <= c.Hi):
			t.Errorf("%s: band [%g, %g]", id, c.Lo, c.Hi)
		}
		seen[id] = true
		if _, ok := c.Value(tab); !ok && !c.optional {
			t.Errorf("%s: reads no value", id)
		}
	}
}

// paperVerdicts pins the verdict of every claim at paper scale
// (Default options), except the wall-clock ones, which depend on the
// machine. A verdict that flips fails TestPaperScaleVerdicts until the
// entry is edited by hand, with the reason given in CHANGES.md.
var paperVerdicts = map[string]string{
	"fig1/best B":                                   verdictPass,
	"fig1/best E":                                   verdictPass,
	"fig1/best K":                                   verdictPass,
	"fig2/CNN-MNIST optimum":                        verdictPass,
	"fig2/LSTM-Shakespeare optimum":                 verdictFail, // (8,20,20) leads
	"fig3/L/H above 1 in every row":                 verdictPass,
	"fig3/time falls with B":                        verdictPass,
	"fig3/E=20 takes twice E=10":                    verdictPass,
	"fig4/interference widens the H-to-L gap":       verdictPass,
	"fig4/interference slows every category":        verdictPass,
	"fig4/network instability slows every category": verdictPass,
	"fig5/adaptive cuts every category's energy":    verdictPass,
	"fig6/round time speedup":                       verdictPass,
	"fig6/PPW gain":                                 verdictPass,
	"fig6/convergence round similar":                verdictFail, // 0.28x
	"fig7/IID optimum":                              verdictPass,
	"fig7/non-IID optimum":                          verdictPass,
	"fig9/CNN-MNIST vs Fixed (Best)":                verdictPass, // 6.09x, censored baseline
	"fig9/LSTM-Shakespeare vs Fixed (Best)":         verdictFail, // 0.86x
	"fig9/MobileNet-ImageNet vs Fixed (Best)":       verdictFail, // 1.19x
	"fig9/FedGPO best on every workload":            verdictFail, // not on LSTM
	"fig10/vs Fixed (Best) under variance":          verdictPass, // mean of 6.22x (censored) and 0.99x
	"fig10/vs BO under variance":                    verdictFail, // 1.68x
	"fig10/vs GA under variance":                    verdictPass,
	"fig10/margin widens under variance":            verdictFail, // 0.99x unstable-network
	"fig11/vs Fixed (Best) under non-IID":           verdictFail, // 2.03x
	"fig11/vs BO under non-IID":                     verdictPass,
	"fig11/vs GA under non-IID":                     verdictPass,
	"fig12/vs FedEX":                                verdictFail, // 4.63x, above the band
	"fig12/vs ABS":                                  verdictPass,
	"fig12/FedGPO ahead of FedEX":                   verdictPass,
	"fig12/FedEX ahead of ABS":                      verdictFail, // ABS ahead on realistic and non-IID
	"tab5/without data heterogeneity":               verdictFail, // 77.1%
	"tab5/with data heterogeneity":                  verdictFail, // 74.6%
	"sec54/reward convergence round":                verdictFail, // round 93
	"sec54/pre-convergence energy overhead":         verdictFail, // -7.9%
	"sec54/Q-table memory":                          verdictFail, // 10.2 KB shared tables
	"abl-eps/best epsilon":                          verdictPass,
	"abl-cold/cold FedGPO overtakes Fixed (Best)":   verdictPass,
}

// TestPaperScaleVerdicts runs the registry once at paper scale and
// checks every claim's verdict against paperVerdicts.
func TestPaperScaleVerdicts(t *testing.T) {
	rt, err := NewRuntime(0, "")
	if err != nil {
		t.Fatal(err)
	}
	o := Default().WithRuntime(rt)
	tables := make(map[string]Table)
	for _, e := range Registry() {
		tables[e.ID] = e.Run(o)
	}
	pinned := 0
	for _, c := range Claims() {
		id := c.Table + "/" + c.Name
		want, ok := paperVerdicts[id]
		if c.wallClock {
			if ok {
				t.Errorf("%s: a wall-clock claim is pinned", id)
			}
			continue
		}
		pinned++
		if v, _ := c.Value(tables[c.Table]); c.verdict(tables[c.Table]) != want {
			t.Errorf("%s: %s (%.3f in [%g, %g]), pinned %q", id, c.verdict(tables[c.Table]), v, c.Lo, c.Hi, want)
		}
	}
	if pinned != len(paperVerdicts) {
		t.Errorf("%d claims to pin, paperVerdicts has %d", pinned, len(paperVerdicts))
	}
}
