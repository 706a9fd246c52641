package uastatus

import (
	"testing"
	"testing/quick"
)

func TestSeverityClasses(t *testing.T) {
	if Good&severityMask != severityGood || Good.IsBad() {
		t.Error("Good severity wrong")
	}
	for _, c := range []Code{BadTimeout, BadSecurityChecksFailed, BadTcpMessageTooLarge} {
		if !c.IsBad() || c&severityMask != severityBad {
			t.Errorf("%v severity wrong", c)
		}
	}
	if UncertainInitialValue&severityMask != severityUncertain || UncertainInitialValue.IsBad() {
		t.Error("uncertain severity wrong")
	}
}

func TestSeverityPartitionProperty(t *testing.T) {
	// Every code belongs to at most one of good/uncertain/bad, and codes
	// with the 0b11 severity prefix are classified bad by convention of
	// the mask check (they are reserved, never both bad and uncertain).
	f := func(v uint32) bool {
		c := Code(v)
		good, unc, bad := c&severityMask == severityGood, c&severityMask == severityUncertain, c.IsBad()
		n := 0
		for _, x := range []bool{good, unc, bad} {
			if x {
				n++
			}
		}
		return n <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNamesCoverSubcode(t *testing.T) {
	if BadTimeout.Name() != "BadTimeout" {
		t.Errorf("Name = %q", BadTimeout.Name())
	}
	// The low 16 bits (info bits) do not change identity.
	withInfo := BadTimeout | 0x0042
	if withInfo.Name() != "BadTimeout" {
		t.Errorf("Name with info bits = %q", withInfo.Name())
	}
	if got := Code(0x80FF0000).String(); got != "StatusCode(0x80FF0000)" {
		t.Errorf("unknown code string = %q", got)
	}
	if BadNodeIdUnknown.Error() != "BadNodeIdUnknown" {
		t.Errorf("Error() = %q", BadNodeIdUnknown.Error())
	}
}

func TestAllNamedCodesRoundTrip(t *testing.T) {
	for code, name := range names {
		if code.Name() != name {
			t.Errorf("code %v name %q != %q", uint32(code), code.Name(), name)
		}
		if code != Good && !code.IsBad() && code&severityMask != severityUncertain {
			t.Errorf("named code %s has no severity", name)
		}
	}
}
