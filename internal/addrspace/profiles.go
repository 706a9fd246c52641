package addrspace

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/uamsg"
	"repro/internal/uatypes"
)

// Profile selects the application content of a generated address space.
// The study classifies hosts by their namespaces: industrial namespaces
// (vendor URIs, IEC 61131-3) mark production systems, example-application
// namespaces mark test systems, and hosts with only the standard
// namespace stay unclassified (§5.4, Table 2).
type Profile int

// Profiles.
const (
	// ProfileBare exposes only the standard namespace.
	ProfileBare Profile = iota
	// ProfileProduction exposes vendor and IEC 61131-3 namespaces with
	// process variables and control methods.
	ProfileProduction
	// ProfileTest exposes example-application namespaces.
	ProfileTest
)

// ProductionNamespaces are namespace URIs that mark production systems.
var ProductionNamespaces = []string{
	"http://PLCopen.org/OpcUa/IEC61131-3/",
	"http://bachmann.info/UA/M1",
	"urn:beckhoff.com:TwinCAT:UA:Server",
	"http://wago.com/OpcUa/e!COCKPIT",
	"http://siemens.com/simatic-s7-opcua",
	"urn:weidmueller.com:u-control",
	"http://br-automation.com/OpcUa/PLC",
}

// TestNamespaces are namespace URIs of example applications.
var TestNamespaces = []string{
	"http://examples.freeopcua.github.io",
	"urn:python-opcua:example",
	"urn:open62541.server.sample",
	"urn:prosysopc.com:OPCUA:SimulationServer",
}

// Process-variable names observed in the wild by the paper (§5.4).
var variableNames = []string{
	"m3InflowPerHour", "rSetFillLevel", "rActFillLevel", "bPumpRunning",
	"iMotorSpeedRpm", "rTankPressureBar", "bValveOpen", "iCycleCounter",
	"rTemperatureC", "bAlarmActive", "sBatchId", "rFlowSetpoint",
	"iParkingSlotsFree", "sLicensePlate", "rEnergyMeterKwh", "bGateOpen",
}

var methodNames = []string{
	"AddEndpoint", "RemoveEndpoint", "ResetCounters", "StartPump",
	"StopPump", "AcknowledgeAlarm", "ReloadConfig", "ExportLog",
}

// BuildOptions sizes a generated application address space.
type BuildOptions struct {
	Profile Profile
	// Variables and Methods are the number of application nodes.
	Variables int
	Methods   int
	// Fractions of application nodes the anonymous identity may access.
	AnonReadableFrac   float64
	AnonWritableFrac   float64
	AnonExecutableFrac float64
	// Rand drives deterministic generation; required.
	Rand *rand.Rand
}

// Populate adds application content to a space according to the options.
// It returns the namespace index used for application nodes.
func Populate(s *Space, o BuildOptions) (uint16, error) {
	if o.Rand == nil {
		return 0, fmt.Errorf("addrspace: BuildOptions.Rand is required")
	}
	var ns uint16
	switch o.Profile {
	case ProfileBare:
		// "Standard namespace only" hosts (the study's unclassified
		// class) still expose application nodes, just without any
		// classifiable namespace: use the application-URI namespace
		// (index 1) that every server carries.
		ns = 1
	case ProfileProduction:
		ns = s.AddNamespace(ProductionNamespaces[o.Rand.Intn(len(ProductionNamespaces))])
		// Production systems usually expose IEC 61131-3 types as well.
		s.AddNamespace(ProductionNamespaces[0])
	case ProfileTest:
		ns = s.AddNamespace(TestNamespaces[o.Rand.Intn(len(TestNamespaces))])
	default:
		return 0, fmt.Errorf("addrspace: unknown profile %d", o.Profile)
	}

	s.mu.Lock()
	s.reserve(1+o.Variables+o.Methods, o.Variables, 24*(1+o.Variables+o.Methods))
	s.mu.Unlock()
	app := Node{
		ID:          uatypes.NewStringNodeID(ns, "Application"),
		Class:       uamsg.NodeClassObject,
		BrowseName:  uatypes.QualifiedName{NamespaceIndex: ns, Name: "Application"},
		DisplayName: "Application",
	}
	if err := s.Add(app); err != nil {
		return ns, err
	}
	if err := s.Link(ObjectsFolder(), app.ID, uamsg.IDOrganizesRefType); err != nil {
		return ns, err
	}

	// Exact-count semantics: with fraction f of n nodes, precisely
	// round(f*n) nodes carry the right. This keeps per-host exposure
	// fractions sharp so the Figure 7 quantiles reproduce without
	// binomial noise. Readable/writable node indexes are interleaved
	// pseudo-randomly via the provided Rand.
	readable := exactCount(o.AnonReadableFrac, o.Variables)
	writable := exactCount(o.AnonWritableFrac, o.Variables)
	executable := exactCount(o.AnonExecutableFrac, o.Methods)
	readOrder := o.Rand.Perm(o.Variables)
	writeOrder := o.Rand.Perm(o.Variables)
	readSet := make(map[int]bool, readable)
	for _, i := range readOrder[:readable] {
		readSet[i] = true
	}
	writeSet := make(map[int]bool, writable)
	for _, i := range writeOrder[:writable] {
		writeSet[i] = true
	}
	for i := 0; i < o.Variables; i++ {
		name := variableNames[i%len(variableNames)] + "_" + strconv.Itoa(i)
		anon := uamsg.AccessLevel(0)
		if readSet[i] {
			anon |= uamsg.AccessLevelRead
		}
		if writeSet[i] {
			anon |= uamsg.AccessLevelWrite
		}
		n := Node{
			ID:          uatypes.NewStringNodeID(ns, name),
			Class:       uamsg.NodeClassVariable,
			BrowseName:  uatypes.QualifiedName{NamespaceIndex: ns, Name: name},
			DisplayName: name,
			Value:       uatypes.DoubleVariant(o.Rand.Float64() * 100),
			AccessLevel: uamsg.AccessLevelRead | uamsg.AccessLevelWrite,
			AnonAccess:  anon,
		}
		if err := s.Add(n); err != nil {
			return ns, err
		}
		if err := s.Link(app.ID, n.ID, uamsg.IDHasComponentRefType); err != nil {
			return ns, err
		}
	}
	for i := 0; i < o.Methods; i++ {
		name := methodNames[i%len(methodNames)] + "_" + strconv.Itoa(i)
		n := Node{
			ID:             uatypes.NewStringNodeID(ns, name),
			Class:          uamsg.NodeClassMethod,
			BrowseName:     uatypes.QualifiedName{NamespaceIndex: ns, Name: name},
			DisplayName:    name,
			Executable:     true,
			AnonExecutable: i < executable,
		}
		if err := s.Add(n); err != nil {
			return ns, err
		}
		if err := s.Link(app.ID, n.ID, uamsg.IDHasComponentRefType); err != nil {
			return ns, err
		}
	}
	return ns, nil
}

// exactCount rounds frac*n to the nearest integer, clamped to [0, n].
func exactCount(frac float64, n int) int {
	c := int(frac*float64(n) + 0.5)
	if c < 0 {
		return 0
	}
	if c > n {
		return n
	}
	return c
}

// Classification is the study's production/test/unclassified label.
type Classification int

// Classifications (§5.4).
const (
	Unclassified Classification = iota
	Production
	Test
)

// String implements fmt.Stringer.
func (c Classification) String() string {
	switch c {
	case Production:
		return "production"
	case Test:
		return "test"
	default:
		return "unclassified"
	}
}

// Classify labels a host by its namespace array, mirroring the paper's
// heuristic: industrial namespaces → production, example namespaces →
// test, standard namespace only → unclassified.
func Classify(namespaces []string) Classification {
	prod := make(map[string]bool, len(ProductionNamespaces))
	for _, ns := range ProductionNamespaces {
		prod[ns] = true
	}
	test := make(map[string]bool, len(TestNamespaces))
	for _, ns := range TestNamespaces {
		test[ns] = true
	}
	cls := Unclassified
	for _, ns := range namespaces {
		if prod[ns] {
			return Production
		}
		if test[ns] {
			cls = Test
		}
	}
	return cls
}
