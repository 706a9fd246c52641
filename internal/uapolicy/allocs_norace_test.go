//go:build !race

// The race detector adds allocations to the operations budgeted here,
// so their budgets are checked without it.

package uapolicy

import (
	"testing"
)

// TestSymEncryptSignAllocBudget: a chunk's encryption and signature
// allocate at most 2 objects (×1.25 + 2), with the key schedule
// expanded once per channel direction, not per chunk.
func TestSymEncryptSignAllocBudget(t *testing.T) {
	if allocs := testing.AllocsPerRun(200, symEncryptSign(t)); allocs > 2*1.25+2 {
		t.Errorf("encrypting and signing a chunk allocates %.1f objects, budget %.1f", allocs, 2*1.25+2)
	}
}
