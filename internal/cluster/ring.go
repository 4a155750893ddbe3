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
	"math/bits"
	"slices"
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

	// lookup maps the top bits of a hash to the first entry at or after
	// the start of that bucket of the hash space, so SegmentOf reads the
	// table and then steps over the few entries inside the bucket.
	lookup []int32
	shift  uint
	// owners holds every segment's replication-many owners back to back
	// (Owners' answer for any hash in the segment).
	owners []NodeID
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
	r.buildLookup()
	r.owners = make([]NodeID, 0, len(r.entries)*replication)
	for seg := range r.entries {
		r.owners = append(r.owners, r.walkOwners(seg)...)
	}
	return r
}

// buildLookup sizes the top-bits table at about two buckets per entry,
// so a bucket holds on average half an entry.
func (r *Ring) buildLookup() {
	b := min(bits.Len(uint(len(r.entries)))+1, 20)
	r.shift = uint(64 - b)
	r.lookup = make([]int32, 1<<b)
	e := 0
	for t := range r.lookup {
		start := uint64(t) << r.shift
		for e < len(r.entries) && r.entries[e].hash < start {
			e++
		}
		r.lookup[t] = int32(e)
	}
}

// walkOwners returns the replication-many distinct nodes met walking the
// ring from entry seg. The distinctness check is a scan of the owners
// found so far: there are at most replication of them.
func (r *Ring) walkOwners(seg int) []NodeID {
	owners := make([]NodeID, 0, r.replication)
	for i := 0; len(owners) < r.replication && i < len(r.entries); i++ {
		j := seg + i
		if j >= len(r.entries) {
			j -= len(r.entries)
		}
		if n := r.entries[j].node; !slices.Contains(owners, n) {
			owners = append(owners, n)
		}
	}
	return owners
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

// Segments reports how many ring segments partition the hash space: one
// per ring entry, segment i being the hash range that ends at entry i (the
// first segment also takes the wrap-around past the last entry).
func (r *Ring) Segments() int { return len(r.entries) }

// SegmentOf returns the segment holding hash h: the index of the first
// ring entry at or after h, wrapping to 0 past the last. It reads the
// top-bits table for the first entry of h's bucket and steps over the
// entries of the bucket that lie below h.
func (r *Ring) SegmentOf(h uint64) int {
	i := int(r.lookup[h>>r.shift])
	for i < len(r.entries) && r.entries[i].hash < h {
		i++
	}
	if i == len(r.entries) {
		return 0
	}
	return i
}

// Owners returns the replication-many distinct nodes responsible for hash h,
// in ring order (the first is the primary owner). The slice is the ring's
// own table, computed once by NewRing and shared by every caller: it must
// not be modified.
func (r *Ring) Owners(h uint64) []NodeID {
	i := r.SegmentOf(h) * r.replication
	return r.owners[i : i+r.replication : i+r.replication]
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
	// primary holds each ring segment's owner under this snapshot: the
	// first alive node met walking the ring from the segment's entry, or
	// -1 when no node is alive. It is the one ownership table: rehash
	// routes a delta by it and a scan decides a stored segment by it.
	primary []NodeID
}

// NewSnapshot captures the ring with the given live nodes and computes the
// primary of every ring segment, once.
func NewSnapshot(r *Ring, alive []NodeID) *Snapshot {
	s := &Snapshot{ring: r, alive: make([]bool, len(r.nodes))}
	for _, n := range alive {
		if n >= 0 && int(n) < len(s.alive) {
			s.alive[n] = true
		}
	}
	s.aliveList = append(s.aliveList, alive...)
	sort.Slice(s.aliveList, func(i, j int) bool { return s.aliveList[i] < s.aliveList[j] })
	// Walk the ring backwards twice: the second lap sees, at every entry,
	// the nearest alive entry at or after it, wrap-around included.
	s.primary = make([]NodeID, len(r.entries))
	next := NodeID(-1)
	for lap := 0; lap < 2; lap++ {
		for i := len(r.entries) - 1; i >= 0; i-- {
			if n := r.entries[i].node; s.alive[n] {
				next = n
			}
			s.primary[i] = next
		}
	}
	return s
}

// Alive reports whether node n is alive in this snapshot.
func (s *Snapshot) Alive(n NodeID) bool { return n >= 0 && int(n) < len(s.alive) && s.alive[n] }

// AliveNodes lists the alive nodes in ascending order.
func (s *Snapshot) AliveNodes() []NodeID { return s.aliveList }

// Ring exposes the underlying ring.
func (s *Snapshot) Ring() *Ring { return s.ring }

// SegmentPrimary returns the primary owner of ring segment seg (see
// Ring.SegmentOf) under this snapshot, or -1 when no node is alive.
func (s *Snapshot) SegmentPrimary(seg int) NodeID { return s.primary[seg] }

// Primary returns the first alive owner of hash h — the node a rehash
// routes the key to under this snapshot: one of the replication-many
// owners or, with every owner dead, the next alive node past them in ring
// order. It is a lookup in the snapshot's per-segment table.
func (s *Snapshot) Primary(h uint64) (NodeID, error) {
	if n := s.primary[s.ring.SegmentOf(h)]; n >= 0 {
		return n, nil
	}
	return 0, fmt.Errorf("cluster: no alive node for hash %d", h)
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
