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
	"strconv"
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

// Reference links two nodes.
type Reference struct {
	TypeID    uint32 // numeric reference type id (ns=0)
	Target    uatypes.NodeID
	IsForward bool
}

// Node is one address-space entry.
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

	refs []Reference
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

// Space is a thread-safe address space.
type Space struct {
	mu         sync.RWMutex
	nodes      map[string]*Node
	namespaces []string
}

// New returns a space containing the standard skeleton: Root, Objects,
// Types and Views folders and the Server object with NamespaceArray,
// ServerArray, ServerStatus and BuildInfo/SoftwareVersion.
func New(applicationURI, softwareVersion string) *Space {
	s := &Space{
		nodes:      make(map[string]*Node),
		namespaces: []string{"http://opcfoundation.org/UA/", applicationURI},
	}
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

func (s *Space) addObject(id uint32, name string) *Node {
	n := &Node{
		ID:          uatypes.NewNumericNodeID(0, id),
		Class:       uamsg.NodeClassObject,
		BrowseName:  uatypes.QualifiedName{Name: name},
		DisplayName: name,
	}
	s.nodes[n.ID.Key()] = n
	return n
}

func (s *Space) addVariable(id uint32, name string, v uatypes.Variant) *Node {
	n := &Node{
		ID:          uatypes.NewNumericNodeID(0, id),
		Class:       uamsg.NodeClassVariable,
		BrowseName:  uatypes.QualifiedName{Name: name},
		DisplayName: name,
		Value:       v,
		AccessLevel: uamsg.AccessLevelRead,
		AnonAccess:  uamsg.AccessLevelRead,
	}
	s.nodes[n.ID.Key()] = n
	return n
}

func (s *Space) link(parent, child *Node, refType uint32) {
	parent.refs = append(parent.refs, Reference{TypeID: refType, Target: child.ID, IsForward: true})
	child.refs = append(child.refs, Reference{TypeID: refType, Target: parent.ID, IsForward: false})
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
	if n, ok := s.nodes[uatypes.NewNumericNodeID(0, uamsg.IDNamespaceArray).Key()]; ok {
		n.Value = uatypes.StringArrayVariant(s.namespaces)
	}
	return uint16(len(s.namespaces) - 1)
}

// Add inserts a node. It returns an error if the id already exists.
func (s *Space) Add(n *Node) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := n.ID.Key()
	if _, exists := s.nodes[key]; exists {
		return fmt.Errorf("addrspace: node %s already exists", key)
	}
	s.nodes[key] = n
	return nil
}

// Link adds a bidirectional reference between existing nodes.
func (s *Space) Link(parentID, childID uatypes.NodeID, refType uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	parent, ok := s.nodes[parentID.Key()]
	if !ok {
		return fmt.Errorf("addrspace: unknown parent %s", parentID)
	}
	child, ok := s.nodes[childID.Key()]
	if !ok {
		return fmt.Errorf("addrspace: unknown child %s", childID)
	}
	s.link(parent, child, refType)
	return nil
}

// Node looks up a node by id. The key is built in a stack buffer and
// the map[string(bytes)] lookup pattern keeps the hot read/browse path
// from allocating a key string per request.
func (s *Space) Node(id uatypes.NodeID) (*Node, bool) {
	var buf [48]byte
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[string(id.AppendKey(buf[:0]))]
	return n, ok
}

// Identifier returns the identifier of the string node id (ns, id) if
// the space holds that node: a server decodes the ids its clients send
// back into the space's own strings (uatypes.Decoder.Known).
func (s *Space) Identifier(ns uint16, id []byte) (string, bool) {
	var buf [64]byte
	key := strconv.AppendUint(append(buf[:0], "ns="...), uint64(ns), 10)
	key = append(append(key, ";s="...), id...)
	s.mu.RLock()
	n, ok := s.nodes[string(key)]
	s.mu.RUnlock()
	if !ok {
		return "", false
	}
	return n.ID.Text, true
}

// ObjectsFolder returns the node id of the Objects folder, the root of
// hierarchical traversal.
func ObjectsFolder() uatypes.NodeID {
	return uatypes.NewNumericNodeID(0, uamsg.IDObjectsFolder)
}

// Browse returns the references of a node as wire descriptions. Only
// forward hierarchical traversal is used by the study, but direction is
// honoured for completeness.
func (s *Space) Browse(id uatypes.NodeID, dir uamsg.BrowseDirection, classMask uint32) ([]uamsg.ReferenceDescription, bool) {
	var buf [48]byte
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[string(id.AppendKey(buf[:0]))]
	if !ok {
		return nil, false
	}
	// Size the result once: a ReferenceDescription is over 300 bytes, so
	// growing by doubling copied every listing about twice over.
	want := 0
	for i := range n.refs {
		if n.refs[i].matches(dir) {
			want++
		}
	}
	if want == 0 {
		return nil, true
	}
	out := make([]uamsg.ReferenceDescription, 0, want)
	for _, ref := range n.refs {
		if !ref.matches(dir) {
			continue
		}
		target, ok := s.nodes[string(ref.Target.AppendKey(buf[:0]))]
		if !ok {
			continue
		}
		if classMask != 0 && classMask&uint32(target.Class) == 0 {
			continue
		}
		out = append(out, uamsg.ReferenceDescription{
			ReferenceTypeID: uatypes.NewNumericNodeID(0, ref.TypeID),
			IsForward:       ref.IsForward,
			NodeID:          uatypes.ExpandedNodeID{NodeID: target.ID},
			BrowseName:      target.BrowseName,
			DisplayName:     uatypes.NewText(target.DisplayName),
			NodeClass:       target.Class,
		})
	}
	if len(out) == 0 {
		return nil, true // as before sizing: no listing encodes as a null array
	}
	return out, true
}

// matches reports whether the reference is followed when browsing in
// direction dir (anything but forward or inverse means both).
func (r *Reference) matches(dir uamsg.BrowseDirection) bool {
	switch dir {
	case uamsg.BrowseDirectionForward:
		return r.IsForward
	case uamsg.BrowseDirectionInverse:
		return !r.IsForward
	}
	return true
}
