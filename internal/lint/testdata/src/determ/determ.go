// Package determ exercises the determinism analyzer: entropy and clock
// rules (this package is listed in the test Config.DeterministicPkgs)
// plus the map-iteration-order rule.
package determ

import (
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"sort"
	"strings"
	"time"
)

func entropy() {
	var b [8]byte
	rand.Read(b[:])   // want "crypto/rand.Read on the deterministic path"
	_ = mrand.Intn(4) // want "math/rand.Intn uses the global source"
	r := mrand.New(mrand.NewSource(1))
	_ = r.Intn(4)                      // seeded source: sanctioned
	_ = time.Now()                     // want "time.Now on the deterministic path"
	_ = time.Since(epoch)              // want "time.Since on the deterministic path"
	<-time.After(time.Second)          // want "time.After on the deterministic path"
	time.AfterFunc(time.Hour, entropy) // want "time.AfterFunc on the deterministic path"
	time.NewTimer(time.Hour)           // want "time.NewTimer on the deterministic path"
	time.NewTicker(time.Hour)          // want "time.NewTicker on the deterministic path"
	_ = time.Tick(time.Hour)           // want "time.Tick on the deterministic path"
	time.Sleep(time.Millisecond)       // want "time.Sleep on the deterministic path"
	_ = epoch.After(epoch)             // a method: reads no clock
}

// exempted is the golden case for declaration-level exemptions: the
// directive in this doc comment must silence every entropy finding in
// the body.
//
//studyvet:entropy-exempt — golden: declaration-level exemptions are honored
func exempted() time.Time {
	var b [8]byte
	rand.Read(b[:])
	return time.Now()
}

func statementExempt() time.Time {
	//studyvet:entropy-exempt — golden: statement-level exemptions are honored
	return time.Now()
}

//studyvet:entropy-exempt — fixed date, not a wall-clock read
var epoch = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func leakAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append to keys inside a map range without a following sort"
	}
	return keys
}

func sortedAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// orderedExempt is sanctioned: the caller re-sorts.
//
//studyvet:ordered — golden: function-level order exemptions are honored
func orderedExempt(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

func encodeLeak(m map[string]int, sb *strings.Builder) {
	for k, v := range m {
		fmt.Fprintf(sb, "%s=%d\n", k, v) // want "fmt.Fprintf inside a map range emits in nondeterministic iteration order"
	}
}

func localAppend(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		total += len(local)
	}
	return total
}
