package control

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one typed control-plane event as published to /events
// subscribers. Data carries the event-specific payload, marshalled once
// per publish — and not at all while nobody subscribes.
type Event struct {
	// Type is "scored", "alarm", "verdict", "model-swapped",
	// "view-stalled", "pair-dropped", "attached", "detached" or "drain".
	Type string `json:"type"`
	// Unit is the plant id ("unit-007"), empty for process-wide events.
	Unit string `json:"unit,omitempty"`
	// Data is the event payload.
	Data any `json:"data,omitempty"`
}

// bus fans events out to SSE subscribers. Publishing never blocks: a
// subscriber that cannot keep up has events dropped and counted — the
// scoring pipeline's back-pressure contract must not extend to slow HTTP
// clients.
type bus struct {
	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed bool
	// nsubs mirrors len(subs) so publish can skip rendering, lock-free,
	// when nobody is listening.
	nsubs atomic.Int32

	published atomic.Uint64
	dropped   atomic.Uint64 // total across all subscribers
}

// subscriber is one /events client: a buffered frame channel plus its
// personal drop count (reported in its SSE stream as a "dropped" comment
// so the client knows its view has holes).
type subscriber struct {
	ch      chan []byte
	dropped atomic.Uint64
}

func newBus() *bus {
	return &bus{subs: make(map[*subscriber]struct{})}
}

// subscribe registers a client with the given buffer depth.
func (b *bus) subscribe(depth int) *subscriber {
	if depth <= 0 {
		depth = 64
	}
	s := &subscriber{ch: make(chan []byte, depth)}
	b.mu.Lock()
	if !b.closed {
		b.subs[s] = struct{}{}
		b.nsubs.Add(1)
	} else {
		close(s.ch)
	}
	b.mu.Unlock()
	return s
}

func (b *bus) unsubscribe(s *subscriber) {
	b.mu.Lock()
	if _, ok := b.subs[s]; ok {
		delete(b.subs, s)
		b.nsubs.Add(-1)
		close(s.ch)
	}
	b.mu.Unlock()
}

// publish renders the event as one SSE frame and offers it to every
// subscriber, dropping (and counting) on full buffers. With no subscriber
// it renders nothing.
func (b *bus) publish(ev Event, marshal func(any) ([]byte, error)) {
	if b.nsubs.Load() == 0 {
		return
	}
	// Render before taking the lock: marshal is caller-supplied, and calling
	// out while holding b.mu invites the lock-inversion class pcslint's
	// callback-under-lock analyzer exists for. A subscriber that leaves in
	// between costs one wasted render.
	data, err := marshal(ev)
	if err != nil {
		return
	}
	frame := make([]byte, 0, len("event: \ndata: \n\n")+len(ev.Type)+len(data))
	frame = append(frame, "event: "...)
	frame = append(frame, ev.Type...)
	frame = append(frame, "\ndata: "...)
	frame = append(frame, data...)
	frame = append(frame, "\n\n"...)
	b.mu.Lock()
	if b.closed || len(b.subs) == 0 {
		b.mu.Unlock()
		return
	}
	b.published.Add(1)
	for s := range b.subs {
		select {
		case s.ch <- frame:
		default:
			s.dropped.Add(1)
			b.dropped.Add(1)
		}
	}
	b.mu.Unlock()
}

// close terminates every subscriber stream.
func (b *bus) close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		for s := range b.subs {
			delete(b.subs, s)
			close(s.ch)
		}
		b.nsubs.Store(0)
	}
	b.mu.Unlock()
}

// serveSSE streams the bus to one HTTP client until it disconnects or
// the bus closes. Every heartbeat interval with no traffic emits an SSE
// comment carrying the client's cumulative drop count, so backpressure
// loss is visible on the wire, not just in metrics. Frames already queued
// behind the one received are written with it under one flush: a burst
// costs one write syscall, not one per event.
func (b *bus) serveSSE(w http.ResponseWriter, r *http.Request, heartbeat time.Duration) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": connected\n\n")
	fl.Flush()

	sub := b.subscribe(256)
	defer b.unsubscribe(sub)
	tick := time.NewTicker(heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case frame, open := <-sub.ch:
			if !open {
				return
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			// Only this goroutine receives, so len(sub.ch) frames are
			// there to take; the snapshot bounds the batch while
			// publishers keep refilling the channel.
			for range len(sub.ch) {
				if _, err := w.Write(<-sub.ch); err != nil {
					return
				}
			}
			fl.Flush()
		case <-tick.C:
			if _, err := fmt.Fprintf(w, ": heartbeat dropped=%d\n\n", sub.dropped.Load()); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
