// Package addrspace models an OPC UA server address space: nodes with
// classes, references, values and per-identity access rights, plus the
// standard Server object every OPC UA server exposes (NamespaceArray,
// ServerStatus, BuildInfo/SoftwareVersion). The study traverses address
// spaces anonymously to measure what unauthenticated clients can read,
// write and execute (Figure 7) and classifies hosts by their namespaces
// (§5.4).
package addrspace

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/uamsg"
	"repro/internal/uatypes"
)

// Identity is the authenticated session user evaluated by access control.
type Identity struct {
	Kind     uamsg.UserTokenType
	UserName string
}

// Anonymous is the unauthenticated identity.
var Anonymous = Identity{Kind: uamsg.UserTokenAnonymous}

// Node is one address-space entry: what Add takes and Node returns. A
// Space does not keep it in this shape (see Space).
type Node struct {
	ID          uatypes.NodeID
	Class       uamsg.NodeClass
	BrowseName  uatypes.QualifiedName
	DisplayName string
	Value       uatypes.Variant

	// AccessLevel is the nominal access level of a Variable node;
	// AnonAccess restricts what the anonymous identity may do.
	AccessLevel uamsg.AccessLevel
	AnonAccess  uamsg.AccessLevel

	// Executable marks a Method node as callable; AnonExecutable gates
	// anonymous invocation.
	Executable     bool
	AnonExecutable bool
}

// Access returns the effective access level for the identity.
func (n *Node) Access(id Identity) uamsg.AccessLevel {
	if id.Kind == uamsg.UserTokenAnonymous {
		return n.AnonAccess
	}
	return n.AccessLevel
}

// CanExecute returns whether the identity may call this method node.
func (n *Node) CanExecute(id Identity) bool {
	if n.Class != uamsg.NodeClassMethod || !n.Executable {
		return false
	}
	if id.Kind == uamsg.UserTokenAnonymous {
		return n.AnonExecutable
	}
	return true
}

// Space is a thread-safe address space, kept as flat tables so that the
// collector marks a few objects per space rather than a few per node
// (DESIGN.md §3, "An address space is tables"):
//
//   - nodes, one row per node: its identifier, browse name and display
//     name are spans of text, its value a row of values, its references
//     a chain through refs;
//   - refs, one row per reference: its type, its target's row, and the
//     next reference of the same node;
//   - index, open addressing from a node id's hash to its row (+1), each
//     hit confirmed by comparing the id exactly;
//   - text, every identifier and name, appended once.
//
// Their element types hold no pointers (TestTablesHoldNoPointers).
// values, the nodes' Variants, is the one table whose element type does:
// a Read answers with a pointer into it, and a double holds none.
type Space struct {
	mu         sync.RWMutex
	nodes      []node
	refs       []ref
	index      []uint32
	values     []uatypes.Variant
	text       strings.Builder
	namespaces []string
}

// none marks an absent row: no value, no reference, the end of a chain.
const none = ^uint32(0)

// span is the string text[off : off+n] of a space.
type span struct{ off, n uint32 }

// node is a row of Space.nodes.
type node struct {
	hash        uint32 // hashID of the node id
	class       uamsg.NodeClass
	idNum       uint32
	idNS        uint16
	nameNS      uint16
	idType      uatypes.NodeIDType
	access      uamsg.AccessLevel
	anonAccess  uamsg.AccessLevel
	exec        bool
	anonExec    bool
	id          span // the identifier of a non-numeric id
	name        span // BrowseName.Name
	display     span
	value       uint32 // row of values, none if the node has no value
	first, last uint32 // first and last row of its references, none if it has none
}

// ref is a row of Space.refs.
type ref struct {
	typeID  uint32 // numeric reference type id (ns=0)
	target  uint32 // row of the target node
	next    uint32 // the next reference of the same node, none at the end
	forward bool
}

// New returns a space containing the standard skeleton: Root, Objects,
// Types and Views folders and the Server object with NamespaceArray,
// ServerArray, ServerStatus and BuildInfo/SoftwareVersion.
func New(applicationURI, softwareVersion string) *Space {
	s := &Space{namespaces: []string{"http://opcfoundation.org/UA/", applicationURI}}
	root := s.addObject(uamsg.IDRootFolder, "Root")
	objects := s.addObject(uamsg.IDObjectsFolder, "Objects")
	types := s.addObject(uamsg.IDTypesFolder, "Types")
	views := s.addObject(uamsg.IDViewsFolder, "Views")
	s.link(root, objects, uamsg.IDOrganizesRefType)
	s.link(root, types, uamsg.IDOrganizesRefType)
	s.link(root, views, uamsg.IDOrganizesRefType)

	server := s.addObject(uamsg.IDServerObject, "Server")
	s.link(objects, server, uamsg.IDOrganizesRefType)

	nsArray := s.addVariable(uamsg.IDNamespaceArray, "NamespaceArray",
		uatypes.StringArrayVariant(s.namespaces))
	srvArray := s.addVariable(uamsg.IDServerArray, "ServerArray",
		uatypes.StringArrayVariant([]string{applicationURI}))
	status := s.addVariable(uamsg.IDServerStatus, "ServerStatus",
		uatypes.Int32Variant(0)) // 0 = Running
	s.link(server, nsArray, uamsg.IDHasPropertyRefType)
	s.link(server, srvArray, uamsg.IDHasPropertyRefType)
	s.link(server, status, uamsg.IDHasComponentRefType)

	build := s.addVariable(uamsg.IDBuildInfo, "BuildInfo", uatypes.Variant{})
	version := s.addVariable(uamsg.IDSoftwareVersion, "SoftwareVersion",
		uatypes.StringVariant(softwareVersion))
	product := s.addVariable(uamsg.IDProductName, "ProductName",
		uatypes.StringVariant(""))
	current := s.addVariable(uamsg.IDCurrentTime, "CurrentTime",
		uatypes.TimeVariant(time.Time{}))
	s.link(status, build, uamsg.IDHasComponentRefType)
	s.link(status, current, uamsg.IDHasComponentRefType)
	s.link(build, version, uamsg.IDHasComponentRefType)
	s.link(build, product, uamsg.IDHasComponentRefType)
	return s
}

func (s *Space) addObject(id uint32, name string) uint32 {
	return s.add(&Node{
		ID:          uatypes.NewNumericNodeID(0, id),
		Class:       uamsg.NodeClassObject,
		BrowseName:  uatypes.QualifiedName{Name: name},
		DisplayName: name,
	})
}

func (s *Space) addVariable(id uint32, name string, v uatypes.Variant) uint32 {
	return s.add(&Node{
		ID:          uatypes.NewNumericNodeID(0, id),
		Class:       uamsg.NodeClassVariable,
		BrowseName:  uatypes.QualifiedName{Name: name},
		DisplayName: name,
		Value:       v,
		AccessLevel: uamsg.AccessLevelRead,
		AnonAccess:  uamsg.AccessLevelRead,
	})
}

// add appends n as a new row and returns the row; s.mu is held or s is not
// yet shared, and n's id is not yet in the space. A name equal to the
// one before it shares its span.
func (s *Space) add(n *Node) uint32 {
	row := uint32(len(s.nodes))
	num, text := idKey(n.ID)
	nd := node{
		hash:       hashID(n.ID),
		class:      n.Class,
		idNum:      num,
		idNS:       n.ID.Namespace,
		nameNS:     n.BrowseName.NamespaceIndex,
		idType:     n.ID.Type,
		access:     n.AccessLevel,
		anonAccess: n.AnonAccess,
		exec:       n.Executable,
		anonExec:   n.AnonExecutable,
		value:      none,
		first:      none,
		last:       none,
	}
	nd.id = s.appendText(text)
	nd.name = nd.id
	if n.BrowseName.Name != text {
		nd.name = s.appendText(n.BrowseName.Name)
	}
	nd.display = nd.name
	if n.DisplayName != n.BrowseName.Name {
		nd.display = s.appendText(n.DisplayName)
	}
	if n.Class == uamsg.NodeClassVariable || n.Value.Type != uatypes.TypeNull || n.Value.IsArray {
		nd.value = uint32(len(s.values))
		s.values = append(s.values, n.Value)
	}
	s.nodes = append(s.nodes, nd)
	if 2*len(s.nodes) > len(s.index) {
		s.rehash(max(16, 2*len(s.index)))
	} else {
		s.place(row)
	}
	return row
}

func (s *Space) appendText(str string) span {
	sp := span{uint32(s.text.Len()), uint32(len(str))}
	s.text.WriteString(str)
	return sp
}

// str returns the string sp spans; it shares text's storage.
func (s *Space) str(sp span) string {
	return s.text.String()[sp.off : sp.off+sp.n]
}

// reserve makes room for nodes more nodes with two references each,
// values more values and textBytes more bytes of text, so a space
// populated in one go grows each table once.
func (s *Space) reserve(nodes, values, textBytes int) {
	s.nodes = slices.Grow(s.nodes, nodes)
	s.refs = slices.Grow(s.refs, 2*nodes)
	s.values = slices.Grow(s.values, values)
	s.text.Grow(textBytes)
	if size := 16; 2*(len(s.nodes)+nodes) > len(s.index) {
		for size < 2*(len(s.nodes)+nodes) {
			size *= 2
		}
		s.rehash(size)
	}
}

// rehash rebuilds the index at size slots, a power of two.
func (s *Space) rehash(size int) {
	s.index = make([]uint32, size)
	for row := range s.nodes {
		s.place(uint32(row))
	}
}

// place enters row into the index at the first free slot of its probe
// sequence.
func (s *Space) place(row uint32) {
	mask := uint32(len(s.index) - 1)
	for i := s.nodes[row].hash & mask; ; i = (i + 1) & mask {
		if s.index[i] == 0 {
			s.index[i] = row + 1
			return
		}
	}
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// idKey returns what identifies a node id besides its type and
// namespace: the number of a numeric id, the text of any other.
func idKey(id uatypes.NodeID) (uint32, string) {
	if id.Type == uatypes.NodeIDTypeNumeric {
		return id.Numeric, ""
	}
	return 0, id.Text
}

// hashHead hashes a node id's type, namespace and number; its text's
// bytes follow one by one, and fold finishes the hash.
func hashHead(typ uatypes.NodeIDType, ns uint16, num uint32) uint64 {
	h := (uint64(fnvOffset64) ^ uint64(typ)) * fnvPrime64
	h = (h ^ uint64(ns)) * fnvPrime64
	return (h ^ uint64(num)) * fnvPrime64
}

func fold(h uint64) uint32 { return uint32(h ^ h>>32) }

func hashID(id uatypes.NodeID) uint32 {
	num, text := idKey(id)
	h := hashHead(id.Type, id.Namespace, num)
	for i := 0; i < len(text); i++ {
		h = (h ^ uint64(text[i])) * fnvPrime64
	}
	return fold(h)
}

// find returns the row of the node id, or none; s.mu is held.
func (s *Space) find(id uatypes.NodeID) uint32 {
	if len(s.index) == 0 {
		return none
	}
	num, text := idKey(id)
	h, mask := hashID(id), uint32(len(s.index)-1)
	for i := h & mask; s.index[i] != 0; i = (i + 1) & mask {
		row := s.index[i] - 1
		nd := &s.nodes[row]
		if nd.hash == h && nd.idType == id.Type && nd.idNS == id.Namespace &&
			nd.idNum == num && s.str(nd.id) == text {
			return row
		}
	}
	return none
}

// AddNamespace registers a namespace URI and returns its index. The
// NamespaceArray variable is kept in sync.
func (s *Space) AddNamespace(uri string) uint16 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, ns := range s.namespaces {
		if ns == uri {
			return uint16(i)
		}
	}
	s.namespaces = append(s.namespaces, uri)
	if row := s.find(uatypes.NewNumericNodeID(0, uamsg.IDNamespaceArray)); row != none {
		s.values[s.nodes[row].value] = uatypes.StringArrayVariant(s.namespaces)
	}
	return uint16(len(s.namespaces) - 1)
}

// Add inserts a node. It returns an error if the id already exists.
func (s *Space) Add(n Node) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.find(n.ID) != none {
		return fmt.Errorf("addrspace: node %s already exists", n.ID.Key())
	}
	s.add(&n)
	return nil
}

// Link adds a bidirectional reference between existing nodes.
func (s *Space) Link(parentID, childID uatypes.NodeID, refType uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	parent := s.find(parentID)
	if parent == none {
		return fmt.Errorf("addrspace: unknown parent %s", parentID)
	}
	child := s.find(childID)
	if child == none {
		return fmt.Errorf("addrspace: unknown child %s", childID)
	}
	s.link(parent, child, refType)
	return nil
}

func (s *Space) link(parent, child, refType uint32) {
	s.appendRef(parent, ref{typeID: refType, target: child, next: none, forward: true})
	s.appendRef(child, ref{typeID: refType, target: parent, next: none})
}

// appendRef adds r to the end of the chain of references of row from.
func (s *Space) appendRef(from uint32, r ref) {
	at := uint32(len(s.refs))
	s.refs = append(s.refs, r)
	nd := &s.nodes[from]
	if nd.last == none {
		nd.first = at
	} else {
		s.refs[nd.last].next = at
	}
	nd.last = at
}

// Node returns the node with the given id. Its strings are the space's
// own; it allocates nothing.
func (s *Space) Node(id uatypes.NodeID) (Node, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	row := s.find(id)
	if row == none {
		return Node{}, false
	}
	nd := &s.nodes[row]
	n := Node{
		ID:          s.nodeID(nd),
		Class:       nd.class,
		BrowseName:  uatypes.QualifiedName{NamespaceIndex: nd.nameNS, Name: s.str(nd.name)},
		DisplayName: s.str(nd.display),
		AccessLevel: nd.access, AnonAccess: nd.anonAccess,
		Executable: nd.exec, AnonExecutable: nd.anonExec,
	}
	if nd.value != none {
		n.Value = s.values[nd.value]
	}
	return n, true
}

func (s *Space) nodeID(nd *node) uatypes.NodeID {
	return uatypes.NodeID{Type: nd.idType, Namespace: nd.idNS, Numeric: nd.idNum, Text: s.str(nd.id)}
}

// null is the value of a node that holds none. It is never written.
var null uatypes.Variant

// Value returns the value of the node with the given id: a pointer into
// the space's table, which the caller must not modify, so a Read answers
// without copying it. A node without a value reads as the null Variant.
func (s *Space) Value(id uatypes.NodeID) (*uatypes.Variant, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	row := s.find(id)
	switch {
	case row == none:
		return nil, false
	case s.nodes[row].value == none:
		return &null, true
	}
	return &s.values[s.nodes[row].value], true
}

// Identifier returns the identifier of the string node id (ns, id) if
// the space holds that node: a server decodes the ids its clients send
// back into the space's own strings (uatypes.Decoder.Known).
func (s *Space) Identifier(ns uint16, id []byte) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.index) == 0 {
		return "", false
	}
	h := hashHead(uatypes.NodeIDTypeString, ns, 0)
	for _, b := range id {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	hash, mask := fold(h), uint32(len(s.index)-1)
	for i := hash & mask; s.index[i] != 0; i = (i + 1) & mask {
		nd := &s.nodes[s.index[i]-1]
		if nd.hash == hash && nd.idType == uatypes.NodeIDTypeString && nd.idNS == ns &&
			nd.idNum == 0 && s.str(nd.id) == string(id) {
			return s.str(nd.id), true
		}
	}
	return "", false
}

// ObjectsFolder returns the node id of the Objects folder, the root of
// hierarchical traversal.
func ObjectsFolder() uatypes.NodeID {
	return uatypes.NewNumericNodeID(0, uamsg.IDObjectsFolder)
}

// Browse returns the references of a node as wire descriptions, in the
// order they were linked. Only forward hierarchical traversal is used by
// the study, but direction is honoured for completeness.
func (s *Space) Browse(id uatypes.NodeID, dir uamsg.BrowseDirection, classMask uint32) ([]uamsg.ReferenceDescription, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	row := s.find(id)
	if row == none {
		return nil, false
	}
	// Size the result once: a ReferenceDescription is over 300 bytes, so
	// growing by doubling copied every listing about twice over.
	want := 0
	for r := s.nodes[row].first; r != none; r = s.refs[r].next {
		if s.follows(&s.refs[r], dir, classMask) {
			want++
		}
	}
	if want == 0 {
		return nil, true // no listing encodes as a null array
	}
	out := make([]uamsg.ReferenceDescription, 0, want)
	for r := s.nodes[row].first; r != none; r = s.refs[r].next {
		ref := &s.refs[r]
		if !s.follows(ref, dir, classMask) {
			continue
		}
		target := &s.nodes[ref.target]
		out = append(out, uamsg.ReferenceDescription{
			ReferenceTypeID: uatypes.NewNumericNodeID(0, ref.typeID),
			IsForward:       ref.forward,
			NodeID:          uatypes.ExpandedNodeID{NodeID: s.nodeID(target)},
			BrowseName:      uatypes.QualifiedName{NamespaceIndex: target.nameNS, Name: s.str(target.name)},
			DisplayName:     uatypes.NewText(s.str(target.display)),
			NodeClass:       target.class,
		})
	}
	return out, true
}

// follows reports whether a Browse in direction dir under classMask
// lists the reference (a direction but forward or inverse means both).
func (s *Space) follows(r *ref, dir uamsg.BrowseDirection, classMask uint32) bool {
	switch dir {
	case uamsg.BrowseDirectionForward:
		if !r.forward {
			return false
		}
	case uamsg.BrowseDirectionInverse:
		if r.forward {
			return false
		}
	}
	return classMask == 0 || classMask&uint32(s.nodes[r.target].class) != 0
}
