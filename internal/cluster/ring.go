// Package cluster is REX's shared-nothing cluster substrate (§4.1):
// worker nodes, a pluggable message transport with batching and per-node
// bandwidth accounting, a consistent-hashing ring with data replication,
// partition snapshots distributed with each query, and failure injection
// with detection by the query requestor.
//
// The Transport interface has two backends. InProcTransport runs every
// worker as an event loop on its own goroutine, with all cross-node data
// still passing through the binary codec so the bandwidth experiments
// measure real serialized bytes. TCPTransport runs each worker in its own
// OS process (see cmd/rexnode) and carries the same wire frames over real
// sockets with length-prefixed framing.
package cluster

import (
	"fmt"
	"sort"
)

// NodeID identifies a worker node (0..N-1).
type NodeID int

// ringEntry is one virtual node position on the hash circle.
type ringEntry struct {
	hash uint64
	node NodeID
}

// Ring is a consistent-hashing ring with virtual nodes and replication,
// the partitioning scheme of §4.1 ("partitions are chosen using a
// consistent hashing and data replication scheme known to all nodes").
type Ring struct {
	entries     []ringEntry
	nodes       []NodeID
	replication int
}

// NewRing builds a ring over n nodes with the given virtual nodes per
// physical node and replication factor. Replication is capped at n.
func NewRing(n, vnodesPerNode, replication int) *Ring {
	if n <= 0 {
		panic("cluster: ring needs at least one node")
	}
	if vnodesPerNode <= 0 {
		vnodesPerNode = 64
	}
	if replication <= 0 {
		replication = 1
	}
	if replication > n {
		replication = n
	}
	r := &Ring{replication: replication}
	for node := 0; node < n; node++ {
		r.nodes = append(r.nodes, NodeID(node))
		for v := 0; v < vnodesPerNode; v++ {
			h := splitmix64(uint64(node)<<32 | uint64(v)*2654435761)
			r.entries = append(r.entries, ringEntry{hash: h, node: NodeID(node)})
		}
	}
	sort.Slice(r.entries, func(i, j int) bool { return r.entries[i].hash < r.entries[j].hash })
	return r
}

// splitmix64 scrambles virtual-node positions uniformly around the circle.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Replication reports the configured replication factor.
func (r *Ring) Replication() int { return r.replication }

// Nodes reports all physical nodes on the ring.
func (r *Ring) Nodes() []NodeID { return r.nodes }

// Owners returns the replication-many distinct nodes responsible for hash h,
// in ring order (the first is the primary owner).
func (r *Ring) Owners(h uint64) []NodeID {
	idx := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].hash >= h })
	owners := make([]NodeID, 0, r.replication)
	seen := map[NodeID]bool{}
	for i := 0; len(owners) < r.replication && i < len(r.entries); i++ {
		e := r.entries[(idx+i)%len(r.entries)]
		if !seen[e.node] {
			seen[e.node] = true
			owners = append(owners, e.node)
		}
	}
	return owners
}

// Snapshot is the partition snapshot distributed with every query (§4.1):
// the ring plus the set of nodes the requestor believed alive. All data for
// the query is routed by this snapshot, so routing stays stable even as the
// cluster changes; recovery installs a new snapshot.
type Snapshot struct {
	ring  *Ring
	alive []bool // indexed by NodeID over the ring's nodes
	// aliveList caches alive node ids in order.
	aliveList []NodeID
}

// NewSnapshot captures the ring with the given live nodes.
func NewSnapshot(r *Ring, alive []NodeID) *Snapshot {
	s := &Snapshot{ring: r, alive: make([]bool, len(r.nodes))}
	for _, n := range alive {
		if n >= 0 && int(n) < len(s.alive) {
			s.alive[n] = true
		}
	}
	s.aliveList = append(s.aliveList, alive...)
	sort.Slice(s.aliveList, func(i, j int) bool { return s.aliveList[i] < s.aliveList[j] })
	return s
}

// Alive reports whether node n is alive in this snapshot.
func (s *Snapshot) Alive(n NodeID) bool { return n >= 0 && int(n) < len(s.alive) && s.alive[n] }

// AliveNodes lists the alive nodes in ascending order.
func (s *Snapshot) AliveNodes() []NodeID { return s.aliveList }

// Ring exposes the underlying ring.
func (s *Snapshot) Ring() *Ring { return s.ring }

// Primary returns the first alive owner of hash h — the node a rehash
// routes the key to under this snapshot. It runs once per shuffled delta
// and once per scanned row, so it walks the ring entries in place instead
// of materializing Owners: the first alive node met is the answer whether
// it is one of the replication-many owners or, with every owner dead, the
// next alive node past them in ring order.
func (s *Snapshot) Primary(h uint64) (NodeID, error) {
	entries := s.ring.entries
	idx := sort.Search(len(entries), func(i int) bool { return entries[i].hash >= h })
	for i := 0; i < len(entries); i++ {
		j := idx + i
		if j >= len(entries) {
			j -= len(entries)
		}
		if n := entries[j].node; s.alive[n] {
			return n, nil
		}
	}
	return 0, fmt.Errorf("cluster: no alive node for hash %d", h)
}

// Replicas returns the alive replica owners for hash h (primary first).
func (s *Snapshot) Replicas(h uint64) []NodeID {
	owners := s.ring.Owners(h)
	out := make([]NodeID, 0, len(owners))
	for _, n := range owners {
		if s.alive[n] {
			out = append(out, n)
		}
	}
	return out
}

// Without derives a new snapshot excluding the given node — the updated
// partition snapshot installed during recovery (§4.1: "During each recovery
// process, the data partition snapshot gets updated").
func (s *Snapshot) Without(dead NodeID) *Snapshot {
	remaining := make([]NodeID, 0, len(s.aliveList))
	for _, n := range s.aliveList {
		if n != dead {
			remaining = append(remaining, n)
		}
	}
	return NewSnapshot(s.ring, remaining)
}
