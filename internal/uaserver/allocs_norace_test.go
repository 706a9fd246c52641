//go:build !race

// The race detector adds allocations to the operations budgeted here,
// so their budgets are checked without it.

package uaserver

import (
	"testing"

	"repro/internal/telemetry"
)

// TestWalkAllocBudget: one walk allocates at most 256 objects
// (×1.25 + 2), client and server side; a return to one Browse per node,
// or to slices grown by doubling on the browse path, breaks it.
func TestWalkAllocBudget(t *testing.T) {
	if allocs := testing.AllocsPerRun(20, walkSession(t, telemetry.New())); allocs > 256*1.25+2 {
		t.Errorf("a walk allocates %.0f objects, budget %.0f", allocs, 256*1.25+2)
	}
}
