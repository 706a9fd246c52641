package addrspace

import (
	mrand "math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/uamsg"
	"repro/internal/uatypes"
)

func TestNewStandardSkeleton(t *testing.T) {
	s := New("urn:test:app", "3.2.1")
	for _, id := range []uint32{
		uamsg.IDRootFolder, uamsg.IDObjectsFolder, uamsg.IDServerObject,
		uamsg.IDNamespaceArray, uamsg.IDServerStatus, uamsg.IDSoftwareVersion,
	} {
		if _, ok := s.Node(uatypes.NewNumericNodeID(0, id)); !ok {
			t.Errorf("missing standard node i=%d", id)
		}
	}
	ver, _ := s.Node(uatypes.NewNumericNodeID(0, uamsg.IDSoftwareVersion))
	if ver.Value.Str != "3.2.1" {
		t.Errorf("software version = %q", ver.Value.Str)
	}
	ns := s.namespaces
	if len(ns) != 2 || ns[0] != "http://opcfoundation.org/UA/" || ns[1] != "urn:test:app" {
		t.Errorf("namespaces = %v", ns)
	}
	if len(s.nodes) < 10 {
		t.Errorf("skeleton nodes = %d", len(s.nodes))
	}
}

func TestAddNamespaceIdempotent(t *testing.T) {
	s := New("urn:app", "1")
	i1 := s.AddNamespace("urn:x")
	i2 := s.AddNamespace("urn:x")
	if i1 != i2 {
		t.Errorf("namespace registered twice: %d != %d", i1, i2)
	}
	// NamespaceArray variable stays in sync.
	n, _ := s.Node(uatypes.NewNumericNodeID(0, uamsg.IDNamespaceArray))
	arr := n.Value.StringArray()
	if len(arr) != 3 || arr[2] != "urn:x" {
		t.Errorf("namespace array = %v", arr)
	}
}

func TestAddAndLinkValidation(t *testing.T) {
	s := New("urn:app", "1")
	n := Node{ID: uatypes.NewStringNodeID(1, "x"), Class: uamsg.NodeClassObject}
	if err := s.Add(n); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(n); err == nil {
		t.Error("duplicate Add accepted")
	}
	unknown := uatypes.NewStringNodeID(1, "nope")
	if err := s.Link(unknown, n.ID, uamsg.IDOrganizesRefType); err == nil {
		t.Error("link from unknown parent accepted")
	}
	if err := s.Link(n.ID, unknown, uamsg.IDOrganizesRefType); err == nil {
		t.Error("link to unknown child accepted")
	}
}

func TestBrowseDirections(t *testing.T) {
	s := New("urn:app", "1")
	objects := ObjectsFolder()
	fwd, ok := s.Browse(objects, uamsg.BrowseDirectionForward, 0)
	if !ok || len(fwd) == 0 {
		t.Fatalf("forward browse = %v, %v", fwd, ok)
	}
	inv, _ := s.Browse(objects, uamsg.BrowseDirectionInverse, 0)
	for _, r := range inv {
		if r.IsForward {
			t.Error("inverse browse returned forward reference")
		}
	}
	both, _ := s.Browse(objects, uamsg.BrowseDirectionBoth, 0)
	if len(both) != len(fwd)+len(inv) {
		t.Errorf("both = %d, fwd+inv = %d", len(both), len(fwd)+len(inv))
	}
	// Class mask filters.
	vars, _ := s.Browse(uatypes.NewNumericNodeID(0, uamsg.IDServerObject),
		uamsg.BrowseDirectionForward, uint32(uamsg.NodeClassVariable))
	for _, r := range vars {
		if r.NodeClass != uamsg.NodeClassVariable {
			t.Errorf("mask leak: %v", r.NodeClass)
		}
	}
	if _, ok := s.Browse(uatypes.NewStringNodeID(9, "missing"), uamsg.BrowseDirectionForward, 0); ok {
		t.Error("browse of unknown node reported ok")
	}
}

func TestPopulateExactCounts(t *testing.T) {
	s := New("urn:app", "1")
	ns, err := Populate(s, BuildOptions{
		Profile:            ProfileProduction,
		Variables:          40,
		Methods:            10,
		AnonReadableFrac:   0.5,
		AnonWritableFrac:   0.25,
		AnonExecutableFrac: 0.8,
		Rand:               mrand.New(mrand.NewSource(11)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ns < 2 {
		t.Errorf("application namespace index = %d", ns)
	}
	st := anonymousStats(s)
	// Standard skeleton adds 7 readable variables.
	if st.Variables != 47 {
		t.Errorf("variables = %d", st.Variables)
	}
	if got := st.AnonReadable - 7; got != 20 {
		t.Errorf("app readable = %d, want exactly 20", got)
	}
	if st.AnonWritable != 10 {
		t.Errorf("writable = %d, want exactly 10", st.AnonWritable)
	}
	if st.Methods != 10 || st.AnonExecutable != 8 {
		t.Errorf("methods/executable = %d/%d, want 10/8", st.Methods, st.AnonExecutable)
	}
}

func TestPopulateProfiles(t *testing.T) {
	cases := []struct {
		profile Profile
		class   Classification
	}{
		{ProfileProduction, Production},
		{ProfileTest, Test},
		{ProfileBare, Unclassified},
	}
	for _, c := range cases {
		s := New("urn:app:xyz", "1")
		if _, err := Populate(s, BuildOptions{
			Profile: c.profile, Variables: 5, Methods: 1,
			Rand: mrand.New(mrand.NewSource(2)),
		}); err != nil {
			t.Fatal(err)
		}
		if got := Classify(s.namespaces); got != c.class {
			t.Errorf("profile %v classified as %v (namespaces %v)", c.profile, got, s.namespaces)
		}
		// Bare profiles still expose application nodes (the study's
		// unclassified hosts have content, just no vendor namespace).
		if st := anonymousStats(s); st.Variables < 5+7 {
			t.Errorf("profile %v variables = %d", c.profile, st.Variables)
		}
	}
}

func TestPopulateValidation(t *testing.T) {
	s := New("urn:app", "1")
	if _, err := Populate(s, BuildOptions{Profile: ProfileProduction}); err == nil {
		t.Error("missing Rand accepted")
	}
	if _, err := Populate(s, BuildOptions{Profile: Profile(99),
		Rand: mrand.New(mrand.NewSource(1))}); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestAccessControlPerIdentity(t *testing.T) {
	n := &Node{
		Class:       uamsg.NodeClassVariable,
		AccessLevel: uamsg.AccessLevelRead | uamsg.AccessLevelWrite,
		AnonAccess:  uamsg.AccessLevelRead,
	}
	if !n.Access(Anonymous).CanRead() || n.Access(Anonymous).CanWrite() {
		t.Error("anonymous access wrong")
	}
	user := Identity{Kind: uamsg.UserTokenUserName, UserName: "op"}
	if !n.Access(user).CanWrite() {
		t.Error("authenticated access wrong")
	}

	m := &Node{Class: uamsg.NodeClassMethod, Executable: true, AnonExecutable: false}
	if m.CanExecute(Anonymous) {
		t.Error("anonymous execute should be denied")
	}
	if !m.CanExecute(user) {
		t.Error("authenticated execute should be allowed")
	}
	disabled := &Node{Class: uamsg.NodeClassMethod, Executable: false}
	if disabled.CanExecute(user) {
		t.Error("disabled method executable")
	}
	variable := &Node{Class: uamsg.NodeClassVariable}
	if variable.CanExecute(user) {
		t.Error("variables are not executable")
	}
}

func TestClassifyPrecedence(t *testing.T) {
	// Production namespaces win over test namespaces.
	ns := []string{"http://opcfoundation.org/UA/",
		TestNamespaces[0], ProductionNamespaces[1]}
	if Classify(ns) != Production {
		t.Error("production should dominate")
	}
	if Classify([]string{"http://opcfoundation.org/UA/"}) != Unclassified {
		t.Error("standard-only should be unclassified")
	}
	if Classify(nil) != Unclassified {
		t.Error("empty should be unclassified")
	}
	if Production.String() != "production" || Test.String() != "test" ||
		Unclassified.String() != "unclassified" {
		t.Error("classification strings wrong")
	}
}

// anonymousStats counts the space's variables and methods and what the
// anonymous identity may read, write and execute: the ground truth the
// scanner's traversal must recover (Figure 7).
func anonymousStats(s *Space) (st struct{ Variables, AnonReadable, AnonWritable, Methods, AnonExecutable int }) {
	for _, n := range s.nodes {
		switch n.class {
		case uamsg.NodeClassVariable:
			st.Variables++
			if n.anonAccess.CanRead() {
				st.AnonReadable++
			}
			if n.anonAccess.CanWrite() {
				st.AnonWritable++
			}
		case uamsg.NodeClassMethod:
			st.Methods++
			if n.exec && n.anonExec {
				st.AnonExecutable++
			}
		}
	}
	return st
}

// TestIdentifierIsTheSpacesOwn: Identifier knows exactly the string node
// ids of the space, and returns the space's stored identifier string, the
// one Node returns, without allocating.
func TestIdentifierIsTheSpacesOwn(t *testing.T) {
	s := New("urn:app", "1")
	id := uatypes.NewStringNodeID(2, "Tank_1")
	if err := s.Add(Node{ID: id, Class: uamsg.NodeClassVariable}); err != nil {
		t.Fatal(err)
	}
	stored, _ := s.Node(id)
	got, ok := s.Identifier(2, []byte("Tank_1"))
	if !ok || got != "Tank_1" || unsafe.StringData(got) != unsafe.StringData(stored.ID.Text) ||
		unsafe.StringData(got) == unsafe.StringData(id.Text) {
		t.Errorf("Identifier(2, Tank_1) = %q, %v: not the space's own string", got, ok)
	}
	key := []byte("Tank_1")
	if allocs := testing.AllocsPerRun(100, func() { s.Identifier(2, key) }); allocs != 0 {
		t.Errorf("Identifier allocates %.0f objects, want 0", allocs)
	}
	for _, miss := range []struct {
		ns uint16
		id string
	}{{1, "Tank_1"}, {2, "Tank_2"}, {0, "85"}, {2, ""}} {
		if got, ok := s.Identifier(miss.ns, []byte(miss.id)); ok {
			t.Errorf("Identifier(%d, %q) = %q, want unknown", miss.ns, miss.id, got)
		}
	}
}

// TestTablesHoldNoPointers: every table of a Space but values and the
// namespace list has an element type without pointers, and its text is
// one strings.Builder, so the collector never scans a space's nodes,
// references or index. The check must see a pointer wherever a field
// could hide one.
func TestTablesHoldNoPointers(t *testing.T) {
	exempt := map[string]bool{
		"values":     true, // a Read answers with a pointer into it
		"namespaces": true, // the URIs AddNamespace keeps, a few per space
	}
	st := reflect.TypeOf(Space{})
	tables := 0
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		switch {
		case f.Type.Kind() == reflect.Slice && !exempt[f.Name]:
			tables++
			if path := pointerPath(f.Type.Elem()); path != "" {
				t.Errorf("Space.%s: element type %s holds a pointer at %s", f.Name, f.Type.Elem(), path)
			}
		case f.Name == "text" && f.Type != reflect.TypeOf(strings.Builder{}):
			t.Errorf("Space.text is a %s, not one strings.Builder", f.Type)
		}
	}
	if tables < 3 {
		t.Errorf("found %d tables, want nodes, refs and index", tables)
	}
	type hidden struct {
		a [2]struct{ s span }
		b [1]struct{ p *int }
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(Node{}), reflect.TypeOf(hidden{}), reflect.TypeOf(""), reflect.TypeOf(map[int]int{})} {
		if pointerPath(typ) == "" {
			t.Errorf("pointerPath misses the pointer of %s", typ)
		}
	}
}

// pointerPath returns where typ holds a pointer ("." for typ itself), or
// "" if it holds none.
func pointerPath(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Array:
		if typ.Len() > 0 {
			if p := pointerPath(typ.Elem()); p != "" {
				return "[0]" + p
			}
		}
		return ""
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if p := pointerPath(typ.Field(i).Type); p != "" {
				return "." + typ.Field(i).Name + strings.TrimPrefix(p, ".")
			}
		}
		return ""
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.Slice, reflect.String:
		return "."
	}
	return ""
}

// TestSpaceObjectsDoNotGrowWithNodes: a populated space is a fixed
// number of heap objects whatever its node count — its tables, its text
// and the skeleton's few boxed values — where a map of node pointers
// was four or more per node.
func TestSpaceObjectsDoNotGrowWithNodes(t *testing.T) {
	perSpace := func(variables int) float64 {
		const spaces = 40
		held := make([]*Space, spaces)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range held {
			held[i] = New("urn:app", "1")
			if _, err := Populate(held[i], BuildOptions{
				Profile: ProfileProduction, Variables: variables, Methods: variables / 4,
				AnonReadableFrac: 0.5, Rand: mrand.New(mrand.NewSource(int64(i))),
			}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(held)
		return float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / spaces
	}
	small, large := perSpace(8), perSpace(800)
	t.Logf("heap objects per space: %.1f at 10 application nodes, %.1f at 1,000", small, large)
	if small > 24 || large > small+2 {
		t.Errorf("a space of 10 application nodes holds %.1f heap objects and one of 1,000 holds %.1f: objects grow with nodes", small, large)
	}
}
