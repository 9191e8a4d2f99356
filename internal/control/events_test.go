package control

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
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

// stallWriter is an SSE client's response stream that the test can
// stall: while hold is set, the next Write blocks until hold is closed.
// It records the stream and the stream length at every flush.
type stallWriter struct {
	hdr     http.Header
	stalled chan struct{} // one send per write that blocked
	wrote   chan struct{} // pinged after every write and flush

	mu      sync.Mutex
	hold    chan struct{}
	out     bytes.Buffer
	flushes []int
}

func newStallWriter() *stallWriter {
	return &stallWriter{hdr: http.Header{}, stalled: make(chan struct{}, 1), wrote: make(chan struct{}, 1)}
}

func (w *stallWriter) Header() http.Header { return w.hdr }
func (w *stallWriter) WriteHeader(int)     {}

func (w *stallWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	hold := w.hold
	w.mu.Unlock()
	if hold != nil {
		w.stalled <- struct{}{}
		<-hold
	}
	w.mu.Lock()
	w.out.Write(p)
	w.mu.Unlock()
	w.ping()
	return len(p), nil
}

func (w *stallWriter) Flush() {
	w.mu.Lock()
	w.flushes = append(w.flushes, w.out.Len())
	w.mu.Unlock()
	w.ping()
}

func (w *stallWriter) ping() {
	select {
	case w.wrote <- struct{}{}:
	default:
	}
}

func (w *stallWriter) stall() {
	w.mu.Lock()
	w.hold = make(chan struct{})
	w.mu.Unlock()
}

func (w *stallWriter) release() {
	w.mu.Lock()
	hold := w.hold
	w.hold = nil
	w.mu.Unlock()
	close(hold)
}

// TestPlaneSSEBurstInOrder: events published while the /events client is
// stalled reach it exactly once and in publish order, up to the
// subscriber's buffer; the rest are dropped and counted, and the idle
// stream's heartbeat comment reports that count. The queued burst goes
// out under one flush.
func TestPlaneSSEBurstInOrder(t *testing.T) {
	const burst = 300 // more than the subscriber's 256-frame buffer
	b := newBus()
	w := newStallWriter()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		b.serveSSE(w, httptest.NewRequest(http.MethodGet, "/events", nil).WithContext(ctx), 20*time.Millisecond)
	}()
	defer func() {
		cancel()
		<-served
	}()
	for deadline := time.Now().Add(5 * time.Second); b.nsubs.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the subscriber never registered")
		}
	}

	// Stall the client on its next write (frame 0, or a heartbeat that
	// got there first), then publish the whole burst behind it.
	w.stall()
	b.publish(Event{Type: "scored", Unit: "unit-001", Data: 0}, json.Marshal)
	select {
	case <-w.stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("the stream never wrote")
	}
	for i := 1; i < burst; i++ {
		b.publish(Event{Type: "scored", Unit: "unit-001", Data: i}, json.Marshal)
	}
	dropped := b.dropped.Load()
	if dropped == 0 {
		t.Fatalf("a %d-event burst into a stalled client dropped nothing", burst)
	}
	w.release()

	heartbeat := fmt.Sprintf(": heartbeat dropped=%d\n\n", dropped)
	var out string
	var flushes []int
	for deadline := time.After(5 * time.Second); ; {
		w.mu.Lock()
		out, flushes = w.out.String(), append([]int(nil), w.flushes...)
		w.mu.Unlock()
		if last := strings.LastIndex(out, "event: "); last >= 0 && strings.Contains(out[last:], heartbeat) {
			break
		}
		select {
		case <-w.wrote:
		case <-deadline:
			t.Fatalf("no %q after the burst; stream:\n%s", heartbeat, out)
		}
	}

	var got []int
	first, end := -1, 0
	for pos := 0; pos < len(out); {
		line := out[pos:]
		line = line[:strings.IndexByte(line, '\n')+1]
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("frame %d: %v", len(got), err)
			}
			got = append(got, int(ev.Data.(float64)))
			end = pos + len(line) + 1 // the blank line closing the frame
		} else if strings.HasPrefix(line, "event: ") && first < 0 {
			first = pos
		}
		pos += len(line)
	}
	for i, seq := range got {
		if seq != i {
			t.Fatalf("frame %d carries event %d; received %v", i, seq, got)
		}
	}
	if uint64(len(got))+dropped != burst {
		t.Errorf("%d frames delivered + %d dropped, want %d published", len(got), dropped, burst)
	}
	var burstFlushes int
	for _, at := range flushes {
		if at > first && at <= end {
			burstFlushes++
		}
	}
	if burstFlushes != 1 {
		t.Errorf("the %d queued frames went out under %d flushes, want 1", len(got), burstFlushes)
	}
}
