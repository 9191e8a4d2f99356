package fieldbus

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// UDP transport: one encoded frame per datagram, no length prefix — the
// datagram boundary is the frame boundary. This is the lossy,
// unauthenticated fieldbus of the paper's threat model at its most
// literal: datagrams may be dropped, duplicated or reordered by the
// network, and a corrupt one carries no connection to tear down, so the
// listener counts it and moves on. The pairing layer's orphan/gap/
// hold-last machinery turns whatever is lost into typed diagnosis
// evidence.

// maxDatagram bounds one receive: the largest legal frame, rounded up so a
// slightly-overlong datagram is read whole (and then rejected by the
// decoder) instead of silently truncated into a CRC error.
const maxDatagram = 64 * 1024

// UDPStats is a snapshot of a UDP listener's datagram accounting.
type UDPStats struct {
	// Datagrams counts packets received, Corrupt the ones that failed to
	// decode (dropped without delivery). Frames = Datagrams - Corrupt were
	// delivered to the handler.
	Datagrams uint64
	Corrupt   uint64
}

// UDPServer receives fieldbus frames as datagrams and dispatches them to a
// handler — the lossy-transport sibling of Server. A datagram that fails
// to decode is counted and dropped; unlike the TCP path there is no
// connection to kill, and one corrupt packet must not cost the healthy
// stream behind it.
//
// The frame passed to handler is the socket's receive scratch, valid only
// for the duration of the call: a handler that retains it (or its Values)
// must Clone it first.
type UDPServer struct {
	conn    *net.UDPConn
	handler func(*Frame)
	wg      sync.WaitGroup
	closed  atomic.Bool

	datagrams atomic.Uint64
	corrupt   atomic.Uint64
}

// NewUDPServer listens for datagrams on addr (e.g. "127.0.0.1:0") and
// calls handler for every frame that decodes.
func NewUDPServer(addr string, handler func(*Frame)) (*UDPServer, error) {
	if handler == nil {
		return nil, fmt.Errorf("fieldbus: nil handler: %w", ErrBadFrame)
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("fieldbus: udp listen: %w", err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("fieldbus: udp listen: %w", err)
	}
	// A generous kernel buffer absorbs sender bursts; best effort (some
	// platforms clamp it), and irrelevant to correctness — UDP loss is the
	// regime this transport is for.
	_ = conn.SetReadBuffer(4 << 20)
	s := &UDPServer{conn: conn, handler: handler}
	s.wg.Add(1)
	go s.recvLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *UDPServer) Addr() string { return s.conn.LocalAddr().String() }

// recvLoop is the single receive goroutine: per-socket scratch (one wire
// buffer, one decoded frame) keeps the datagram path allocation-free.
func (s *UDPServer) recvLoop() {
	defer s.wg.Done()
	buf := make([]byte, maxDatagram)
	var frame Frame
	for {
		n, _, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			if s.closed.Load() {
				return
			}
			// Transient receive errors (e.g. ICMP-induced) are not fatal for
			// a connectionless listener.
			continue
		}
		s.datagrams.Add(1)
		if err := frame.UnmarshalInto(buf[:n]); err != nil {
			s.corrupt.Add(1)
			continue
		}
		s.handler(&frame)
	}
}

// Stats snapshots the datagram accounting. Corrupt is loaded first: it
// only ever increments after datagrams does, so this order guarantees
// Datagrams >= Corrupt in the snapshot (Frames can never underflow) even
// while the receive loop is running.
func (s *UDPServer) Stats() UDPStats {
	corrupt := s.corrupt.Load()
	return UDPStats{Datagrams: s.datagrams.Load(), Corrupt: corrupt}
}

// Close stops the listener and waits for the receive goroutine.
func (s *UDPServer) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	err := s.conn.Close()
	s.wg.Wait()
	return err
}

// UDPClient sends frames as datagrams — one Send, one packet. Safe for
// concurrent use.
type UDPClient struct {
	mu   sync.Mutex
	conn net.Conn
	buf  []byte // marshal scratch, guarded by mu
}

// DialUDP binds a client socket toward a UDP listener.
func DialUDP(addr string) (*UDPClient, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("fieldbus: udp dial: %w", err)
	}
	return &UDPClient{conn: conn}, nil
}

// Send transmits one frame as one datagram. Delivery is, by design, not
// guaranteed.
func (c *UDPClient) Send(f *Frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, err := f.MarshalTo(c.buf)
	if err != nil {
		return err
	}
	c.buf = data
	if _, err := c.conn.Write(data); err != nil {
		return fmt.Errorf("fieldbus: udp send: %w", err)
	}
	return nil
}

// Close closes the client socket.
func (c *UDPClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}
