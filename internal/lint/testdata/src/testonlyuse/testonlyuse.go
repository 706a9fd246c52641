// Package testonlyuse is the non-test caller of package testonly.
package testonlyuse

import "testonly"

// Run calls testonly through its exported names.
func Run() string {
	var h testonly.Handler = testonly.Used()
	h.Handle()
	return testonly.Used().String()
}
