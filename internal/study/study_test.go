package study

import "testing"

// TestIDGolden pins the ID's one encoding: the Hello's JSON keys in
// field order, digested whole. Renaming a key or reordering the fields
// moves every ID, so such a change bumps idVersion with the digest. The
// study is what measure -testkeys -noise 0.001 -waves 0-7 measures.
func TestIDGolden(t *testing.T) {
	s := Study{Seed: 2020, Waves: []int{0, 1, 2, 3, 4, 5, 6, 7}, TestKeySizes: true, NoiseProb: 0.001}
	if got, want := s.ID(), "study-v1:3030e6f635e871f879bbb28a21de1aa0d5909a2dd8cde7ca4c29e71a8f64bd1a"; got != want {
		t.Errorf("ID %s, want %s", got, want)
	}
}
