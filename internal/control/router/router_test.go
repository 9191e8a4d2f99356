package router

import (
	"errors"
	"testing"

	"pcsmon/internal/fieldbus"
)

func TestOwnerDeterministicAndTotal(t *testing.T) {
	a, err := NewTable("node-a", "node-b", "node-c")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTable("node-c", "node-a", "node-b") // joined in another order
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for u := 0; u < 256; u++ {
		oa, ob := a.Owner(uint8(u)), b.Owner(uint8(u))
		if oa == "" {
			t.Fatalf("unit %d unowned", u)
		}
		if oa != ob {
			t.Fatalf("unit %d: owner depends on join order (%q vs %q)", u, oa, ob)
		}
		counts[oa]++
	}
	// Rendezvous over 256 units and 3 nodes should land roughly 85 per
	// node; a node owning fewer than 32 or more than 160 means the hash is
	// broken, not merely unlucky.
	for n, c := range counts {
		if c < 32 || c > 160 {
			t.Errorf("node %s owns %d of 256 units — distribution broken: %v", n, c, counts)
		}
	}
	got := 0
	for _, o := range a.owner {
		if o != "" {
			got++
		}
	}
	if got != 256 {
		t.Errorf("owner table covers %d units, want 256", got)
	}
}

func TestMembershipChangeMovesMinimally(t *testing.T) {
	tb, err := NewTable("node-a", "node-b")
	if err != nil {
		t.Fatal(err)
	}
	before := tb.owner // array copy: the assignment before the change

	moved, err := tb.Add("node-c")
	if err != nil {
		t.Fatal(err)
	}
	// Every moved unit must now be on the new node, and every unmoved unit
	// must still be where it was: growth never shuffles survivors.
	movedSet := map[uint8]bool{}
	for _, u := range moved {
		movedSet[u] = true
		if got := tb.Owner(u); got != "node-c" {
			t.Errorf("unit %d moved to %q, want node-c", u, got)
		}
	}
	for u := 0; u < 256; u++ {
		if !movedSet[uint8(u)] && tb.Owner(uint8(u)) != before[uint8(u)] {
			t.Errorf("unit %d moved from %q to %q without being reported",
				u, before[uint8(u)], tb.Owner(uint8(u)))
		}
	}
	if len(moved) == 0 || len(moved) > 160 {
		t.Errorf("adding a third node moved %d units, want roughly a third of 256", len(moved))
	}
}

func TestTableValidation(t *testing.T) {
	tb, _ := NewTable("a")
	if _, err := tb.Add(""); !errors.Is(err, ErrBadNode) {
		t.Errorf("empty node: %v, want ErrBadNode", err)
	}
	if _, err := tb.Add("a"); !errors.Is(err, ErrBadNode) {
		t.Errorf("duplicate node: %v, want ErrBadNode", err)
	}
	if o := (&Table{}).Owner(3); o != "" {
		t.Errorf("empty table owner = %q, want \"\"", o)
	}
}

func TestRouterForwardsByOwner(t *testing.T) {
	tb, err := NewTable("left", "right")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]uint8{}
	sink := func(node string) Sink {
		return func(f *fieldbus.Frame) error {
			got[node] = append(got[node], f.Unit)
			return nil
		}
	}
	r, err := NewRouter(tb, map[string]Sink{"left": sink("left"), "right": sink("right")})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 256; u++ {
		f := &fieldbus.Frame{Unit: uint8(u)}
		if err := r.Route(f); err != nil {
			t.Fatalf("unit %d: %v", u, err)
		}
	}
	for node, units := range got {
		for _, u := range units {
			if tb.Owner(u) != node {
				t.Errorf("unit %d delivered to %s, owner is %s", u, node, tb.Owner(u))
			}
		}
	}
	if r.Forwarded() != 256 {
		t.Errorf("Forwarded() = %d, want 256", r.Forwarded())
	}

	// A node without a sink counts unrouted and errors.
	if _, err := tb.Add("ghost"); err != nil {
		t.Fatal(err)
	}
	var routedToGhost bool
	for u := 0; u < 256; u++ {
		if tb.Owner(uint8(u)) == "ghost" {
			routedToGhost = true
			if err := r.Route(&fieldbus.Frame{Unit: uint8(u)}); !errors.Is(err, ErrUnknownNode) {
				t.Errorf("ghost-owned unit %d: %v, want ErrUnknownNode", u, err)
			}
			break
		}
	}
	if routedToGhost && r.Unrouted() == 0 {
		t.Error("Unrouted() = 0 after routing to a sinkless node")
	}
}

func TestRouterValidation(t *testing.T) {
	tb, _ := NewTable("a")
	if _, err := NewRouter(nil, map[string]Sink{"a": func(*fieldbus.Frame) error { return nil }}); !errors.Is(err, ErrBadNode) {
		t.Errorf("nil table: %v", err)
	}
	if _, err := NewRouter(tb, nil); !errors.Is(err, ErrBadNode) {
		t.Errorf("no sinks: %v", err)
	}
	if _, err := NewRouter(tb, map[string]Sink{"a": nil}); !errors.Is(err, ErrBadNode) {
		t.Errorf("nil sink: %v", err)
	}
}
