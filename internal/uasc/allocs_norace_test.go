//go:build !race

// The race detector adds allocations to the operations budgeted here,
// so their budgets are checked without it.

package uasc

import (
	"testing"
)

// TestHandshakeAllocBudget: a first exchange allocates at most 423
// objects and a replayed one at most 71 (each ×1.25 + 2), client and
// server. A return to recomputing the OAEP blocks of a replayed
// exchange, or to decrypting a ciphertext the peer just computed,
// breaks them.
func TestHandshakeAllocBudget(t *testing.T) {
	if allocs := testing.AllocsPerRun(10, func() { firstHandshake(t) }); allocs > 423*1.25+2 {
		t.Errorf("a first handshake allocates %.0f objects, budget %.0f", allocs, 423*1.25+2)
	}
	if allocs := testing.AllocsPerRun(20, replayHandshake(t)); allocs > 71*1.25+2 {
		t.Errorf("a replayed handshake allocates %.0f objects, budget %.0f", allocs, 71*1.25+2)
	}
}
