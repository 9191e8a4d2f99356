package fieldbus

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Wire format over TCP: each frame is length-prefixed with a big-endian
// uint32, followed by the MarshalTo-encoded frame bytes.

// WriteFrameBuf writes one length-prefixed frame to w, encoding through
// buf — the allocation-free path for per-frame wire traffic. It returns
// the (possibly grown) scratch for the next call.
func WriteFrameBuf(w io.Writer, f *Frame, buf []byte) ([]byte, error) {
	data, err := f.MarshalTo(buf)
	if err != nil {
		return buf, err
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(data)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return data, fmt.Errorf("fieldbus: write length: %w", err)
	}
	if _, err := w.Write(data); err != nil {
		return data, fmt.Errorf("fieldbus: write frame: %w", err)
	}
	return data, nil
}

// ReadFrameInto reads one length-prefixed frame from r into f, staging the
// wire bytes through buf — the allocation-free receive path: with a
// long-lived frame and scratch, steady-state reads allocate nothing
// (asserted by TestReadFrameIntoSteadyStateAllocs). It returns the
// (possibly grown) scratch for the next call.
func ReadFrameInto(r io.Reader, f *Frame, buf []byte) ([]byte, error) {
	// The length prefix is staged through the scratch too: a local array
	// would escape through the io.ReadFull interface call and cost one
	// allocation per frame — the very thing this path exists to avoid.
	if cap(buf) < 4 {
		buf = make([]byte, 4, EncodedSize(64))
	}
	buf = buf[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, fmt.Errorf("fieldbus: read length: %w", err)
	}
	n := binary.BigEndian.Uint32(buf)
	if n == 0 || n > uint32(EncodedSize(MaxValues)) {
		return buf, fmt.Errorf("fieldbus: frame length %d: %w", n, ErrBadFrame)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, fmt.Errorf("fieldbus: read frame: %w", err)
	}
	return buf, f.UnmarshalInto(buf)
}

// connReadSize is the per-connection read buffer of Server: at line rate
// one read syscall carries a whole burst of frames (a 53-value frame is
// 446 bytes on the wire), where bufio's default 4 KiB paid one syscall per
// nine frames. BenchmarkTCPReceivePath reads through the same size.
const connReadSize = 64 << 10

// Server accepts fieldbus connections and dispatches received frames to a
// handler. Use it as the controller-side endpoint of the live demo.
type Server struct {
	ln      net.Listener
	handler func(*Frame)
	frames  atomic.Uint64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer listens on addr (e.g. "127.0.0.1:0") and calls handler for
// every valid frame received on any connection. Malformed frames close the
// offending connection.
//
// The frame passed to handler is per-connection scratch, valid only for
// the duration of the call: a handler that retains it (or its Values) must
// Clone it first.
func NewServer(addr string, handler func(*Frame)) (*Server, error) {
	if handler == nil {
		return nil, fmt.Errorf("fieldbus: nil handler: %w", ErrBadFrame)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fieldbus: listen: %w", err)
	}
	s := &Server{ln: ln, handler: handler, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	br := bufio.NewReaderSize(conn, connReadSize)
	// Per-connection scratch: the receive hot path decodes every frame into
	// one long-lived Frame and wire buffer, so steady-state ingest does not
	// allocate (the handler sees the scratch frame; see NewServer).
	var frame Frame
	buf := make([]byte, 0, EncodedSize(64))
	var err error
	for {
		buf, err = ReadFrameInto(br, &frame, buf)
		if err != nil {
			return
		}
		s.frames.Add(1)
		s.handler(&frame)
	}
}

// Frames returns the number of valid frames received across all
// connections since the server started.
func (s *Server) Frames() uint64 { return s.frames.Load() }

// Close stops the listener, closes all connections and waits for the
// serving goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

// Client is a frame sender over a TCP connection.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
	buf  []byte // marshal scratch, guarded by mu
}

// Dial connects to a fieldbus server (or a MitM proxy posing as one).
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fieldbus: dial: %w", err)
	}
	return &Client{conn: conn, bw: bufio.NewWriter(conn)}, nil
}

// Send transmits one frame.
func (c *Client) Send(f *Frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	buf, err := WriteFrameBuf(c.bw, f, c.buf)
	c.buf = buf
	if err != nil {
		return err
	}
	return c.bw.Flush()
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// MitMProxy is a transparent TCP proxy that decodes every frame, passes it
// through a Tap, and forwards the (possibly rewritten) frame upstream — the
// concrete realization of the paper's Figure 2 attacker.
type MitMProxy struct {
	ln       net.Listener
	upstream string
	tap      Tap

	mu         sync.Mutex
	violations uint64 // frames the tap left unencodable, discarded
	closed     bool
	conns      map[net.Conn]struct{}
	wg         sync.WaitGroup
}

// NewMitMProxy listens on addr and forwards frames to upstream, applying
// tap to each. A nil tap forwards unchanged.
func NewMitMProxy(addr, upstream string, tap Tap) (*MitMProxy, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fieldbus: proxy listen: %w", err)
	}
	p := &MitMProxy{ln: ln, upstream: upstream, tap: tap, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address.
func (p *MitMProxy) Addr() string { return p.ln.Addr().String() }

func (p *MitMProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = conn.Close()
			return
		}
		p.conns[conn] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go p.proxyConn(conn)
	}
}

func (p *MitMProxy) proxyConn(down net.Conn) {
	defer p.wg.Done()
	defer func() {
		p.mu.Lock()
		delete(p.conns, down)
		p.mu.Unlock()
		_ = down.Close()
	}()
	up, err := net.Dial("tcp", p.upstream)
	if err != nil {
		return
	}
	defer func() { _ = up.Close() }()
	br := bufio.NewReader(down)
	bw := bufio.NewWriter(up)
	// Per-connection scratch (see Server.serveConn): decode and re-encode
	// reuse one frame and two wire buffers across the proxied stream.
	var frame Frame
	rbuf := make([]byte, 0, EncodedSize(64))
	wbuf := make([]byte, 0, EncodedSize(64))
	for {
		rbuf, err = ReadFrameInto(br, &frame, rbuf)
		if err != nil {
			return
		}
		if p.tap != nil {
			p.tap(&frame)
			// A tap that breaks the frame must not kill the proxied
			// connection (re-marshal would reject it and the stream would
			// die silently): discard the frame, count the violation, keep
			// forwarding.
			if checkTapped(&frame) != nil {
				p.mu.Lock()
				p.violations++
				p.mu.Unlock()
				continue
			}
		}
		if wbuf, err = WriteFrameBuf(bw, &frame, wbuf); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// Close stops the proxy and waits for its goroutines.
func (p *MitMProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	err := p.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	p.wg.Wait()
	return err
}
