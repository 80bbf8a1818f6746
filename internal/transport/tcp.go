package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"thunderbolt/internal/types"
)

// TCPConfig describes one replica's view of a TCP committee.
type TCPConfig struct {
	// Self is this replica's ID.
	Self types.ReplicaID
	// Listen is the local address to accept peer connections on.
	Listen string
	// Peers maps every replica ID (including self) to its address.
	Peers map[types.ReplicaID]string
	// DialTimeout bounds connection attempts (default 2s).
	DialTimeout time.Duration
	// RetryInterval spaces reconnection attempts (default 200ms).
	RetryInterval time.Duration
}

// TCPTransport implements Transport over real sockets with
// length-prefixed frames:
//
//	[4B big-endian frame length][1B msg type][4B sender id][payload]
//
// Outbound connections are dialed lazily and re-dialed on failure;
// inbound frames are dispatched to the handler from per-connection
// reader goroutines. Message authenticity is the protocol layer's
// responsibility (signatures), as with SimNetwork.
type TCPTransport struct {
	cfg TCPConfig
	ln  net.Listener

	mu      sync.Mutex
	h       Handler
	conns   map[types.ReplicaID]net.Conn
	inbound map[net.Conn]struct{}
	// clientConns maps non-peer sender IDs (gateway clients) to their
	// latest inbound connection, so a replica can answer a client it
	// has no address book entry for: the reply rides the connection
	// the client dialed. Entries follow the connection's lifetime.
	clientConns map[types.ReplicaID]net.Conn
	// failedAt backs off dialing per peer: while a peer is down, every
	// Send to it would otherwise pay a full dial timeout — on the
	// node's event loop, where one dead peer must not stall protocol
	// progress for the live committee (crash/restart scenarios).
	failedAt map[types.ReplicaID]time.Time
	done     chan struct{}
	once     sync.Once
	wg       sync.WaitGroup
}

// clientWriteTimeout bounds one reply write to a gateway client. Far
// above any healthy round-trip, far below "wedged forever".
const clientWriteTimeout = 2 * time.Second

// NewTCPTransport starts listening immediately.
func NewTCPTransport(cfg TCPConfig) (*TCPTransport, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 200 * time.Millisecond
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
	}
	t := &TCPTransport{
		cfg:         cfg,
		ln:          ln,
		conns:       make(map[types.ReplicaID]net.Conn),
		inbound:     make(map[net.Conn]struct{}),
		clientConns: make(map[types.ReplicaID]net.Conn),
		failedAt:    make(map[types.ReplicaID]time.Time),
		done:        make(chan struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with ":0").
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// SetPeers installs (or replaces) the peer address book. Useful when
// a committee binds ephemeral ports first and exchanges addresses
// afterwards; call before any Send/Broadcast traffic.
func (t *TCPTransport) SetPeers(peers map[types.ReplicaID]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cfg.Peers = peers
}

// Self implements Transport.
func (t *TCPTransport) Self() types.ReplicaID { return t.cfg.Self }

// SetHandler implements Transport.
func (t *TCPTransport) SetHandler(h Handler) {
	t.mu.Lock()
	t.h = h
	t.mu.Unlock()
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.done:
				return
			default:
				continue
			}
		}
		t.mu.Lock()
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.inbound, conn)
		for id, c := range t.clientConns {
			if c == conn {
				delete(t.clientConns, id)
			}
		}
		t.mu.Unlock()
		conn.Close()
	}()
	var hdr [4]byte
	for {
		select {
		case <-t.done:
			return
		default:
		}
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n < 5 || n > 64<<20 {
			return // malformed frame; drop the connection
		}
		frame, err := readFrame(conn, int(n))
		if err != nil {
			return
		}
		mt := MsgType(frame[0])
		from := types.ReplicaID(binary.BigEndian.Uint32(frame[1:5]))
		t.mu.Lock()
		h := t.h
		// A sender outside the peer book is a gateway client: remember
		// its connection so Send can answer it. Claimed IDs are not
		// authenticated (same trust model as replica frames — protocol
		// payloads authenticate themselves); a client ID collision
		// just misdelivers acks, never consensus traffic.
		if _, peer := t.cfg.Peers[from]; !peer {
			t.clientConns[from] = conn
		}
		t.mu.Unlock()
		if h != nil {
			h(from, mt, frame[5:])
		}
	}
}

// readFrame reads the n-byte frame body that follows a header. The
// header is unauthenticated, so the buffer starts at no more than
// 64 KiB and grows only as payload bytes arrive: a peer must send the
// bytes it claims before the reader holds memory for them.
func readFrame(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, 64<<10))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), len(buf)))
		}
		m, err := r.Read(buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+m]
		if err != nil && len(buf) < n {
			return nil, err
		}
	}
	return buf, nil
}

// conn returns (dialing if necessary) the outbound connection to a
// peer. Dial failures are remembered: until RetryInterval elapses,
// further attempts fail fast instead of paying the dial timeout again
// — sends to a down peer cost microseconds, not seconds, and the
// protocol's own retry cadence (housekeeping) spaces the real redials.
func (t *TCPTransport) conn(to types.ReplicaID) (net.Conn, error) {
	t.mu.Lock()
	if c, ok := t.conns[to]; ok {
		t.mu.Unlock()
		return c, nil
	}
	if at, ok := t.failedAt[to]; ok && time.Since(at) < t.cfg.RetryInterval {
		t.mu.Unlock()
		return nil, fmt.Errorf("transport: peer %d unreachable (backing off)", to)
	}
	addr, ok := t.cfg.Peers[to]
	if !ok {
		t.mu.Unlock()
		return nil, fmt.Errorf("transport: unknown peer %d", to)
	}
	// Record the attempt before dialing, not only after it fails: a
	// blackholed peer (packet drop, no RST) blocks the dial for the
	// full timeout, and every Send racing or following it within the
	// window must fail fast instead of queuing up behind dials of
	// their own. Success clears the mark; failure refreshes it so the
	// backoff is measured from the dial's completion.
	t.failedAt[to] = time.Now()
	t.mu.Unlock()
	c, err := net.DialTimeout("tcp", addr, t.cfg.DialTimeout)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		t.failedAt[to] = time.Now()
		return nil, err
	}
	delete(t.failedAt, to)
	if existing, ok := t.conns[to]; ok {
		// Lost the dial race; keep the established one.
		_ = c.Close()
		return existing, nil
	}
	t.conns[to] = c
	// Read the dialed connection too: between replicas nothing ever
	// comes back on it (peers answer by dialing the address book), but
	// a gateway client is not dialable — its acks, nacks, and commit
	// notifications ride the very connection it dialed out on.
	t.wg.Add(1)
	go t.readLoop(c)
	return c, nil
}

func (t *TCPTransport) dropConn(to types.ReplicaID, c net.Conn) {
	t.mu.Lock()
	if t.conns[to] == c {
		delete(t.conns, to)
	}
	t.mu.Unlock()
	_ = c.Close()
}

// Send implements Transport. A failed write drops the cached
// connection; one immediate retry covers the common stale-socket case.
func (t *TCPTransport) Send(to types.ReplicaID, mt MsgType, payload []byte) error {
	select {
	case <-t.done:
		return ErrClosed
	default:
	}
	if to == t.cfg.Self {
		t.mu.Lock()
		h := t.h
		t.mu.Unlock()
		if h != nil {
			h(t.cfg.Self, mt, append([]byte(nil), payload...))
		}
		return nil
	}
	frame := make([]byte, 4+1+4+len(payload))
	binary.BigEndian.PutUint32(frame[:4], uint32(1+4+len(payload)))
	frame[4] = byte(mt)
	binary.BigEndian.PutUint32(frame[5:9], uint32(t.cfg.Self))
	copy(frame[9:], payload)

	// A destination outside the peer book is a gateway client reached
	// over the connection it dialed in on; there is nothing to redial,
	// so a write failure just drops the mapping (the client's own
	// retransmission re-establishes it).
	t.mu.Lock()
	_, isPeer := t.cfg.Peers[to]
	cc := t.clientConns[to]
	t.mu.Unlock()
	if !isPeer {
		if cc == nil {
			return fmt.Errorf("transport: no connection from client %d", to)
		}
		// Client replies are written from the replica's event loop, and
		// clients are untrusted: one that stops reading must cost a
		// bounded wait, never a wedged consensus loop. A deadline hit
		// drops the connection; the client's own retransmission dials
		// back in.
		_ = cc.SetWriteDeadline(time.Now().Add(clientWriteTimeout))
		_, err := cc.Write(frame)
		_ = cc.SetWriteDeadline(time.Time{})
		if err != nil {
			t.mu.Lock()
			if t.clientConns[to] == cc {
				delete(t.clientConns, to)
			}
			t.mu.Unlock()
			_ = cc.Close()
			return err
		}
		return nil
	}

	// A dial failure returns immediately (the peer is down; the
	// protocol layer's own retries will come back). A write failure
	// drops the cached connection and redials once, covering the
	// common stale-socket case after a peer restart.
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		c, err := t.conn(to)
		if err != nil {
			return err
		}
		if _, err := c.Write(frame); err != nil {
			t.dropConn(to, c)
			lastErr = err
			continue
		}
		return nil
	}
	return lastErr
}

// Broadcast implements Transport. Unreachable peers are skipped (the
// protocol tolerates f faults); the first error is reported after all
// sends are attempted.
func (t *TCPTransport) Broadcast(mt MsgType, payload []byte) error {
	t.mu.Lock()
	ids := make([]types.ReplicaID, 0, len(t.cfg.Peers))
	for id := range t.cfg.Peers {
		ids = append(ids, id)
	}
	t.mu.Unlock()
	var firstErr error
	for _, id := range ids {
		if err := t.Send(id, mt, payload); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.once.Do(func() {
		close(t.done)
		_ = t.ln.Close()
		t.mu.Lock()
		for id, c := range t.conns {
			_ = c.Close()
			delete(t.conns, id)
		}
		// Close inbound connections too, or their readLoops would
		// block in ReadFull until the remote side also closes —
		// deadlocking committees that tear down sequentially.
		for c := range t.inbound {
			_ = c.Close()
		}
		t.mu.Unlock()
	})
	t.wg.Wait()
	return nil
}
