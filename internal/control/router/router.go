// Package router is the control plane's scale-out seed: a consistent
// unit→node assignment table plus a thin frame forwarder, so N serve
// processes split one fleet of fieldbus units.
//
// The assignment generalizes the FNV shard-by-unit discipline
// internal/fleet uses for workers inside one process to nodes across
// processes, but swaps modulo placement for rendezvous (highest random
// weight) hashing: each (node, unit) pair gets a deterministic FNV-1a
// score and the unit lives on the highest-scoring node. Adding a node then
// moves only the units whose top score changed — 1/N of the fleet on
// average — instead of reshuffling nearly everything the way `hash % N`
// does.
//
// The Table is pure assignment arithmetic (deterministic, no I/O); the
// Router binds a Table to per-node frame sinks so an ingest edge can
// forward each frame to whichever node owns its unit.
package router

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pcsmon/internal/fieldbus"
)

// Sentinel errors.
var (
	// ErrBadNode is returned for empty/duplicate node names or an empty table.
	ErrBadNode = errors.New("router: bad node")
	// ErrUnknownNode is returned when routing to a node without a sink.
	ErrUnknownNode = errors.New("router: unknown node")
)

// score is the rendezvous weight of (node, unit): FNV-1a over the node
// name followed by the unit byte, pushed through a 64-bit avalanche
// finalizer. Bare FNV-1a is not enough here — node names that differ only
// in a trailing character produce scores whose relative order survives
// the unit mix, so one node would win every unit; the finalizer spreads
// the single-byte difference across all 64 bits. Deterministic across
// processes — every edge computes the same owner without coordination.
func score(node string, unit uint8) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= prime64
	}
	h ^= uint64(unit)
	h *= prime64
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Table assigns each of the 256 fieldbus units to one named node by
// rendezvous hashing. The zero value is empty; Add nodes to use it. Safe
// for concurrent use.
type Table struct {
	mu    sync.RWMutex
	nodes []string
	owner [256]string // cached owner per unit, rebuilt on membership change
}

// NewTable builds a table over the given nodes.
func NewTable(nodes ...string) (*Table, error) {
	t := &Table{}
	for _, n := range nodes {
		if _, err := t.Add(n); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Nodes lists the member nodes, sorted.
func (t *Table) Nodes() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := append([]string(nil), t.nodes...)
	sort.Strings(out)
	return out
}

// Owner returns the node owning a unit, or "" for an empty table.
func (t *Table) Owner(unit uint8) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.owner[unit]
}

// Add joins a node and returns the units that moved to it — the set the
// operator must drain on their old owners before cutting traffic over.
// Rendezvous hashing guarantees movement is only *onto* the new node.
func (t *Table) Add(node string) ([]uint8, error) {
	if node == "" {
		return nil, fmt.Errorf("empty node name: %w", ErrBadNode)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range t.nodes {
		if n == node {
			return nil, fmt.Errorf("node %q already present: %w", node, ErrBadNode)
		}
	}
	t.nodes = append(t.nodes, node)
	return t.rebuild(), nil
}

// rebuild recomputes the owner cache under t.mu, returning the units
// whose owner changed.
func (t *Table) rebuild() []uint8 {
	var moved []uint8
	for u := 0; u < 256; u++ {
		best, bestScore := "", uint64(0)
		for _, n := range t.nodes {
			if s := score(n, uint8(u)); best == "" || s > bestScore || (s == bestScore && n < best) {
				best, bestScore = n, s
			}
		}
		if t.owner[u] != best {
			t.owner[u] = best
			moved = append(moved, uint8(u))
		}
	}
	return moved
}

// Sink accepts one frame on behalf of a node — an in-process plane's
// ingest, or a network forwarder in a multi-host deployment.
type Sink func(f *fieldbus.Frame) error

// Router forwards frames to the node owning their unit. Safe for
// concurrent use; sinks must be too.
type Router struct {
	table *Table
	sinks map[string]Sink // fixed at construction

	forwarded atomic.Uint64
	unrouted  atomic.Uint64
}

// NewRouter binds an assignment table to its per-node sinks.
func NewRouter(table *Table, sinks map[string]Sink) (*Router, error) {
	if table == nil || len(sinks) == 0 {
		return nil, fmt.Errorf("router needs a table and at least one sink: %w", ErrBadNode)
	}
	r := &Router{table: table, sinks: make(map[string]Sink, len(sinks))}
	for n, s := range sinks {
		if s == nil {
			return nil, fmt.Errorf("node %q: nil sink: %w", n, ErrBadNode)
		}
		r.sinks[n] = s
	}
	return r, nil
}

// Route forwards one frame to the owner of its unit. A frame whose owner
// has no sink (membership changed under us) is counted as unrouted and
// dropped — the caller's retention story, not the router's.
func (r *Router) Route(f *fieldbus.Frame) error {
	owner := r.table.Owner(f.Unit)
	sink := r.sinks[owner]
	if sink == nil {
		r.unrouted.Add(1)
		return fmt.Errorf("unit %d owner %q has no sink: %w", f.Unit, owner, ErrUnknownNode)
	}
	if err := sink(f); err != nil {
		return err
	}
	r.forwarded.Add(1)
	return nil
}

// Forwarded counts frames delivered to a sink; Unrouted counts frames
// whose owner had no sink.
func (r *Router) Forwarded() uint64 { return r.forwarded.Load() }
func (r *Router) Unrouted() uint64  { return r.unrouted.Load() }
