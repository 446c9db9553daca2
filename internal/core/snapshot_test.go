package core

import (
	"math"
	"testing"

	"fedgpo/internal/fl"
)

// A pretrained snapshot validates; each malformed variant a shipped or
// cached artifact could carry is rejected.
func TestSnapshotValidate(t *testing.T) {
	warm := fedgpoConfig(5)
	warm.MaxRounds = 30
	snap := PretrainSnapshot(DefaultConfig(), warm)
	if err := snap.Validate(); err != nil {
		t.Fatalf("a pretrained snapshot is invalid: %v", err)
	}
	if len(snap.LocalTables) == 0 || snap.KTable == nil {
		t.Fatal("the warm-up built no tables")
	}
	enc := snap.AppendBinary(nil)
	// Each case edits its own deep copy of the snapshot.
	local := func(s *Snapshot) (string, []float64) {
		for key, tab := range s.LocalTables {
			for state, row := range tab.Q {
				return key, tab.Q[state][:len(row):len(row)]
			}
		}
		t.Fatal("no local Q row")
		return "", nil
	}
	setMask := func(s *Snapshot, mask []bool) {
		key, _ := local(s)
		tab := s.LocalTables[key]
		tab.Mask = mask
		s.LocalTables[key] = tab
	}
	nLocal, nK := len(fl.AllLocalParams()), len(fl.KValues())
	cases := map[string]func(*Snapshot){
		"short local row": func(s *Snapshot) {
			key, _ := local(s)
			for state, row := range s.LocalTables[key].Q {
				s.LocalTables[key].Q[state] = row[:len(row)-1]
				return
			}
		},
		"long K row": func(s *Snapshot) {
			for state, row := range s.KTable.Q {
				s.KTable.Q[state] = append(row, 0)
				return
			}
		},
		"NaN Q value":       func(s *Snapshot) { _, row := local(s); row[0] = math.NaN() },
		"infinite K value":  func(s *Snapshot) { s.KTable.Q["hand-made"] = append(make([]float64, nK-1), math.Inf(1)) },
		"NaN normalizer":    func(s *Snapshot) { s.GlobalNorm.Value = math.NaN() },
		"infinite deadline": func(s *Snapshot) { s.Deadline = math.Inf(-1) },
		"NaN epsilon":       func(s *Snapshot) { s.KTable.Epsilon = math.NaN() },
		"epsilon above 1":   func(s *Snapshot) { s.KTable.Epsilon = 1.5 },
		"negative epsilon":  func(s *Snapshot) { s.KTable.Epsilon = -0.1 },
		"short mask":        func(s *Snapshot) { setMask(s, make([]bool, nLocal-1)) },
		"all-false mask":    func(s *Snapshot) { setMask(s, make([]bool, nLocal)) },
		"all-false K mask":  func(s *Snapshot) { s.KTable.Mask = make([]bool, nK) },
	}
	for name, mutate := range cases {
		var s Snapshot
		if err := s.UnmarshalBinary(enc); err != nil {
			t.Fatal(err)
		}
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// No mask at all allows every action.
	var s Snapshot
	if err := s.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	setMask(&s, nil)
	if err := s.Validate(); err != nil {
		t.Errorf("a table without a mask was rejected: %v", err)
	}
}
