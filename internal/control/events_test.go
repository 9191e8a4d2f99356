package control

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestBusRendersOnlyForSubscribers: publishing with nobody subscribed
// renders nothing; each publish to a subscribed bus renders exactly once.
func TestBusRendersOnlyForSubscribers(t *testing.T) {
	b := newBus()
	calls := 0
	marshal := func(v any) ([]byte, error) {
		calls++
		return json.Marshal(v)
	}
	b.publish(Event{Type: "scored", Unit: "unit-001"}, marshal)
	if calls != 0 {
		t.Fatalf("marshal ran %d times with no subscriber, want 0", calls)
	}
	s := b.subscribe(4)
	b.publish(Event{Type: "scored", Unit: "unit-001"}, marshal)
	if calls != 1 {
		t.Fatalf("marshal ran %d times with one subscriber, want 1", calls)
	}
	if frame := string(<-s.ch); !strings.HasPrefix(frame, "event: scored\ndata: ") {
		t.Errorf("frame = %q", frame)
	}
	b.unsubscribe(s)
	b.publish(Event{Type: "scored", Unit: "unit-001"}, marshal)
	if calls != 1 {
		t.Errorf("marshal ran after the last subscriber left (%d calls)", calls)
	}
}
