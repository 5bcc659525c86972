package dht

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"kadop/internal/metrics"
)

// maxFrame bounds a single wire frame; posting-list chunks are far
// smaller, so anything beyond this is a protocol error, not data.
const maxFrame = 64 << 20

// maxIdlePerPeer bounds the pooled idle connections kept per remote
// peer; further connections are closed after use.
const maxIdlePerPeer = 4

// TCPTransport carries DHT messages over TCP with length-prefixed
// frames. Calls multiplex over a bounded per-peer connection pool
// (serving several requests per connection); streams hold a dedicated
// connection until the final chunk.
type TCPTransport struct {
	ln        net.Listener
	collector *metrics.Collector
	timeout   time.Duration

	mu      sync.Mutex
	handler Handler
	closed  bool
	wg      sync.WaitGroup
	idle    map[string][]*pooledConn
	serving map[net.Conn]struct{}
}

type pooledConn struct {
	conn net.Conn
	br   *bufio.Reader
}

// NewTCPTransport listens on addr (e.g. "127.0.0.1:0"). The collector
// may be nil; a timeout of 0 means 10 seconds per request. A context
// with an earlier deadline overrides the per-request timeout.
func NewTCPTransport(addr string, collector *metrics.Collector, timeout time.Duration) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dht: tcp listen: %w", err)
	}
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &TCPTransport{
		ln:        ln,
		collector: collector,
		timeout:   timeout,
		idle:      map[string][]*pooledConn{},
		serving:   map[net.Conn]struct{}{},
	}, nil
}

// Addr returns the bound listen address.
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// Metrics exposes the transport's collector so the node layer can
// count robustness events alongside the traffic accounting.
func (t *TCPTransport) Metrics() *metrics.Collector { return t.collector }

// Serve implements Transport.
func (t *TCPTransport) Serve(h Handler) error {
	t.mu.Lock()
	t.handler = h
	t.mu.Unlock()
	t.wg.Add(1)
	go t.acceptLoop()
	return nil
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.serving[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			defer func() {
				t.mu.Lock()
				delete(t.serving, conn)
				t.mu.Unlock()
				conn.Close()
			}()
			t.serveConn(conn)
		}()
	}
}

// serveConn serves request frames on one connection until the peer
// hangs up. Stream requests take the connection over: after the final
// chunk the connection closes, matching the client, which dedicates a
// connection per stream.
func (t *TCPTransport) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	for {
		req, err := readFrame(br, t.collector)
		if err != nil {
			return
		}
		t.mu.Lock()
		h := t.handler
		t.mu.Unlock()
		if h == nil {
			writeFrame(conn, Message{Type: MsgError, Err: "not serving"}, t.collector)
			return
		}
		if isStreamRequest(req) {
			err := h.HandleStream(req.From, req, func(chunk Message) error {
				return writeFrame(conn, chunk, t.collector)
			})
			end := Message{Type: MsgEnd}
			if err != nil {
				end = Message{Type: MsgError, Err: err.Error()}
			}
			writeFrame(conn, end, t.collector)
			return
		}
		resp := h.HandleCall(req.From, req)
		if err := writeFrame(conn, resp, t.collector); err != nil {
			return
		}
	}
}

// isStreamRequest reports whether a request frame is answered with a
// chunk stream (HandleStream) rather than one response (HandleCall).
func isStreamRequest(req Message) bool {
	switch req.Type {
	case MsgGetStream, MsgGetBatch:
		return true
	}
	return req.Type == MsgApp && isStreamProc(req.Proc)
}

// isStreamProc reports whether an application procedure uses streaming
// responses; such procedures carry the "stream:" name prefix.
func isStreamProc(proc string) bool {
	return len(proc) >= 7 && proc[:7] == "stream:"
}

// deadline computes the per-attempt wire deadline: the transport
// timeout, clipped by the context's own deadline when that is earlier.
func (t *TCPTransport) deadline(ctx context.Context) time.Time {
	d := time.Now().Add(t.timeout)
	if cd, ok := ctx.Deadline(); ok && cd.Before(d) {
		d = cd
	}
	return d
}

// getConn returns a pooled idle connection to addr, or dials a new one.
func (t *TCPTransport) getConn(ctx context.Context, addr string) (*pooledConn, error) {
	t.mu.Lock()
	if pool := t.idle[addr]; len(pool) > 0 {
		pc := pool[len(pool)-1]
		t.idle[addr] = pool[:len(pool)-1]
		t.mu.Unlock()
		return pc, nil
	}
	t.mu.Unlock()
	var d net.Dialer
	dctx, cancel := context.WithDeadline(ctx, t.deadline(ctx))
	defer cancel()
	conn, err := d.DialContext(dctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dht: dial %s: %w", addr, err)
	}
	return &pooledConn{conn: conn, br: bufio.NewReader(conn)}, nil
}

// putConn returns a healthy connection to the pool (or closes it when
// the pool is full or the transport shut down).
func (t *TCPTransport) putConn(addr string, pc *pooledConn) {
	// Clear the per-request deadline so an idle connection cannot trip
	// a stale timer on its next use.
	if err := pc.conn.SetDeadline(time.Time{}); err != nil {
		pc.conn.Close()
		return
	}
	t.mu.Lock()
	if t.closed || len(t.idle[addr]) >= maxIdlePerPeer {
		t.mu.Unlock()
		pc.conn.Close()
		return
	}
	t.idle[addr] = append(t.idle[addr], pc)
	t.mu.Unlock()
}

// send writes one request frame to a peer, under the per-attempt wire
// deadline, and returns the connection the response will arrive on.
func (t *TCPTransport) send(ctx context.Context, to Contact, req Message) (*pooledConn, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dht: send %s: %w", to.Addr, err)
	}
	pc, err := t.getConn(ctx, to.Addr)
	if err != nil {
		return nil, err
	}
	if err := pc.conn.SetDeadline(t.deadline(ctx)); err != nil {
		pc.conn.Close()
		return nil, fmt.Errorf("dht: set deadline %s: %w", to.Addr, err)
	}
	if err := writeFrame(pc.conn, req, t.collector); err != nil {
		pc.conn.Close()
		return nil, err
	}
	return pc, nil
}

// Call implements Transport.
func (t *TCPTransport) Call(ctx context.Context, to Contact, req Message) (Message, error) {
	pc, err := t.send(ctx, to, req)
	if err != nil {
		return Message{}, err
	}
	resp, err := readFrame(pc.br, t.collector)
	if err != nil {
		pc.conn.Close()
		return Message{}, err
	}
	// The exchange completed: the connection is healthy regardless of
	// the application-level outcome.
	t.putConn(to.Addr, pc)
	if resp.Type == MsgError {
		return resp, Terminal(fmt.Errorf("dht: remote %s: %s", to.Addr, resp.Err))
	}
	return resp, nil
}

// OpenStream implements Transport. The stream owns its connection,
// which closes with the final chunk (stream connections are not
// pooled).
func (t *TCPTransport) OpenStream(ctx context.Context, to Contact, req Message) (MsgStream, error) {
	pc, err := t.send(ctx, to, req)
	if err != nil {
		return nil, err
	}
	return &tcpStream{conn: pc.conn, br: pc.br, collector: t.collector}, nil
}

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	idle := t.idle
	t.idle = map[string][]*pooledConn{}
	serving := make([]net.Conn, 0, len(t.serving))
	for c := range t.serving {
		serving = append(serving, c)
	}
	t.mu.Unlock()
	for _, pool := range idle {
		for _, pc := range pool {
			pc.conn.Close()
		}
	}
	// Unblock serveConn goroutines parked in readFrame on idle inbound
	// connections; wg.Wait below would otherwise never return.
	for _, c := range serving {
		c.Close()
	}
	err := t.ln.Close()
	t.wg.Wait()
	return err
}

type tcpStream struct {
	conn      net.Conn
	br        *bufio.Reader
	collector *metrics.Collector
	finished  bool
}

func (s *tcpStream) Recv() (Message, error) {
	if s.finished {
		return Message{}, io.EOF
	}
	m, err := readFrame(s.br, s.collector)
	if err != nil {
		s.finished = true
		s.conn.Close()
		return Message{}, err
	}
	switch m.Type {
	case MsgEnd:
		s.finished = true
		s.conn.Close()
		return Message{}, io.EOF
	case MsgError:
		s.finished = true
		s.conn.Close()
		return Message{}, fmt.Errorf("dht: stream error: %s", m.Err)
	}
	return m, nil
}

func (s *tcpStream) Close() {
	if !s.finished {
		s.finished = true
		s.conn.Close()
	}
}

func writeFrame(w io.Writer, m Message, collector *metrics.Collector) error {
	enc, err := m.Encode()
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(enc)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("dht: write frame: %w", err)
	}
	if _, err := w.Write(enc); err != nil {
		return fmt.Errorf("dht: write frame: %w", err)
	}
	collector.Count(m.Class(), len(enc))
	return nil
}

func readFrame(r io.Reader, collector *metrics.Collector) (Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, fmt.Errorf("dht: read frame: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return Message{}, fmt.Errorf("dht: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Message{}, fmt.Errorf("dht: read frame body: %w", err)
	}
	m, err := DecodeMessage(buf)
	if err != nil {
		return Message{}, err
	}
	// The receiver does not double-count: the sender charged the bytes.
	_ = collector
	return m, nil
}
