// Package testonly exercises TestNoTestOnlyExports.
package testonly

import "fmt"

// Used has a non-test caller in testonlyuse.
func Used() Value { return Value{n: internal()} }

func internal() int { return 1 }

// Flagged is called from nowhere but tests.
func Flagged() {} // want "exported Flagged has no non-test reference"

// Exempt is kept without a caller, for a stated reason.
//
//studyvet:api — golden: an entry point kept for a stated reason
func Exempt() {}

// Limit is a constant only tests read.
const Limit = 3 // want "exported Limit has no non-test reference"

// Value is used by testonlyuse.
type Value struct{ n int }

// String implements fmt.Stringer: fmt reaches it through the interface.
func (v Value) String() string { return fmt.Sprint(v.n) }

// Handle implements Handler, which testonlyuse calls through.
func (v Value) Handle() {}

// Twice is a method only tests call.
func (v Value) Twice() int { return 2 * v.n } // want "exported Value.Twice has no non-test reference"

// Handler is the interface testonlyuse calls.
type Handler interface{ Handle() }

// Orphan is named only by its own method's receiver.
type Orphan int // want "exported Orphan has no non-test reference"

func (Orphan) unexported() {}
