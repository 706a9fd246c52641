package deploy

import (
	"runtime"
	"testing"
)

// TestAddressSpacesCostObjectsPerHost: the address spaces of a MaxHosts
// world hold a fixed handful of heap objects per host, not a few per
// node. The objects are counted as what the collector frees once the
// world lets go of its spaces.
func TestAddressSpacesCostObjectsPerHost(t *testing.T) {
	w := materializeSmall(t, 120)
	nodes := 0
	for _, wh := range w.hosts {
		nodes += wh.spec.Exposure.Variables + wh.spec.Exposure.Methods
	}
	var held, freed runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&held)
	for _, wh := range w.hosts {
		wh.space = nil
	}
	runtime.GC()
	runtime.ReadMemStats(&freed)
	runtime.KeepAlive(w)
	objects := int64(held.HeapObjects) - int64(freed.HeapObjects)
	hosts := int64(len(w.hosts))
	t.Logf("%d hosts, %d application nodes: their address spaces held %d heap objects", hosts, nodes, objects)
	if objects > 16*hosts {
		t.Errorf("%d hosts' address spaces (%d application nodes) held %d heap objects, more than 16 per host", hosts, nodes, objects)
	}
	if int64(nodes) < 4*hosts {
		t.Fatalf("the world's hosts carry %d application nodes: too few to tell per-host from per-node cost", nodes)
	}
}
