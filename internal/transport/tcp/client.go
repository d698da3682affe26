package tcp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"distknn/internal/obs"
	"distknn/internal/wire"
)

// defaultRetryWait is the degraded-retry budget when
// ClientOptions.RetryWait is zero.
const defaultRetryWait = 500 * time.Millisecond

// degradedRetryInterval spaces the probes of a degraded-retry budget. The
// frontend answers degraded probes immediately (no epoch runs), so polling
// is cheap and the call returns as soon as the lost node re-joins.
const degradedRetryInterval = 100 * time.Millisecond

// errClientClosed reports a call on (or interrupted by) a closed client.
var errClientClosed = errors.New("tcp: client is closed")

// timeoutError is the per-call deadline failure. It implements net.Error
// so callers can detect timeouts portably with errors.As.
type timeoutError struct{ after time.Duration }

func (e *timeoutError) Error() string   { return fmt.Sprintf("tcp: query timed out after %v", e.after) }
func (e *timeoutError) Timeout() bool   { return true }
func (e *timeoutError) Temporary() bool { return true }

// ClientOptions tunes a Client's deadlines and failure handling.
type ClientOptions struct {
	// Timeout bounds each attempt — dial, queueing behind other writers,
	// and the wait for the reply — so a hung frontend fails the call
	// instead of blocking it forever. It is a per-call deadline: when it
	// expires only this call's waiter is abandoned (a late reply to its
	// tag is discarded); the shared connection and the other outstanding
	// calls are untouched. Zero means no deadline.
	Timeout time.Duration
	// RetryWait is the budget for riding out a degraded cluster: Do keeps
	// retrying a degraded failure at short intervals until it succeeds or
	// RetryWait has elapsed, returning as soon as the lost node re-joins.
	// Zero means the default (500ms). A negative RetryWait disables the
	// automatic retry entirely: the first failure of any kind — degraded or
	// transport — is returned to the caller.
	RetryWait time.Duration
	// Metrics receives the client's runtime counters (queries, retries,
	// degraded replies, reconnects, timeouts, outstanding tags — see
	// metrics.go). Nil binds the instrumentation to a private registry.
	Metrics *obs.Registry
}

// Client is a remote handle on a serving cluster: it speaks the
// query/reply half of the protocol over one multiplexed connection. Every
// query carries a client-chosen tag (wire.KindQueryTagged) and the
// frontend's tagged replies may arrive in any order, so any number of
// goroutines can have queries outstanding on the same Client at once —
// one process saturates the frontend's epoch-pipelining window over a
// single socket. One goroutine writes frames, one reads them; a tag →
// waiter table routes each reply to its caller.
//
// The client survives churn on both sides of its connection. A transport
// or framing failure poisons the connection — it is closed and never
// reused mid-stream, so a desynchronized reply can't be misparsed — and
// every in-flight waiter fails with a retryable transport error; each
// affected Do reconnects (lazily, on its retry) and retries its query
// once, which is safe because every query op is an idempotent read. A
// degraded reply (the cluster lost a node; errors.Is(err, ErrDegraded))
// is retried within the RetryWait budget, riding out a quick re-join. A
// negative RetryWait turns both retries off. A connection the frontend
// dropped while idle (it sent no query within the frontend's handshake
// deadline) is redialed by the next query the same way. Close wakes every
// in-flight call and every degraded-retry sleep promptly.
type Client struct {
	addr string
	opts ClientOptions
	cm   *clientMetrics

	closedCh chan struct{} // closed by Close; wakes calls and retry sleeps

	mu      sync.Mutex
	mc      *muxConn      // live connection incarnation; nil until (re)dialed
	dialing chan struct{} // non-nil while a dial runs; closed when it ends
	dialed  bool          // a connection has succeeded before (reconnect accounting)
	closed  bool
}

// muxResult is what the read loop delivers to one waiter: a fully decoded
// reply (owning its memory — nothing aliases the read buffer), or the
// poison error that killed the connection.
type muxResult struct {
	rep wire.Reply
	err error
}

// muxConn is one connection incarnation of a Client: a socket plus the
// writer goroutine, the reader goroutine and the tag → waiter table that
// multiplex concurrent calls over it. A muxConn is immutable except
// through its mutex; once poisoned it is discarded and the Client dials a
// fresh incarnation on the next attempt.
type muxConn struct {
	c       *Client
	conn    net.Conn
	writeCh chan *wire.Writer // encoded frames, owned by the writer goroutine
	dead    chan struct{}     // closed by poison: wakes the writer and queued callers

	mu      sync.Mutex
	nextTag uint64
	waiters map[uint64]chan muxResult
	broken  error // first poison cause; non-nil refuses new calls
}

// DialFrontendOptions connects to a serving frontend.
func DialFrontendOptions(addr string, opts ClientOptions) (*Client, error) {
	c := &Client{addr: addr, opts: opts, cm: newClientMetrics(opts.Metrics), closedCh: make(chan struct{})}
	if _, err := c.conn(); err != nil {
		return nil, err
	}
	return c, nil
}

// conn returns the live connection incarnation, dialing a fresh one if the
// previous was poisoned (or none exists yet). The dial runs without c.mu, so
// Close and the calls on a live incarnation never wait on it, and callers
// that find a dial in flight wait for it instead of dialing their own: one
// poisoned incarnation costs one dial.
func (c *Client) conn() (*muxConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.dialing != nil && !c.closed {
		dialing := c.dialing
		c.mu.Unlock()
		select {
		case <-dialing:
		case <-c.closedCh:
		}
		c.mu.Lock()
	}
	if c.closed {
		return nil, errClientClosed
	}
	if c.mc != nil {
		return c.mc, nil
	}
	dialing := make(chan struct{})
	c.dialing = dialing
	c.mu.Unlock()
	d := net.Dialer{Timeout: c.opts.Timeout}
	conn, err := d.Dial("tcp", c.addr)
	c.mu.Lock()
	c.dialing = nil
	close(dialing)
	if err != nil {
		return nil, fmt.Errorf("tcp: dial frontend: %w", err)
	}
	if c.closed {
		conn.Close()
		return nil, errClientClosed
	}
	if c.dialed {
		c.cm.reconnects.Inc()
	}
	c.dialed = true
	m := &muxConn{
		c:       c,
		conn:    conn,
		writeCh: make(chan *wire.Writer, 16),
		dead:    make(chan struct{}),
		nextTag: 1,
		waiters: make(map[uint64]chan muxResult),
	}
	go m.writeLoop()
	go m.readLoop()
	c.mc = m
	return m, nil
}

// drop detaches a poisoned incarnation so the next attempt dials fresh.
func (c *Client) drop(m *muxConn) {
	c.mu.Lock()
	if c.mc == m {
		c.mc = nil
	}
	c.mu.Unlock()
}

// poison kills the connection after a transport or framing failure: the
// incarnation detaches from the Client first, so a waiter woken below
// already reconnects on its next attempt; then the socket closes (stopping
// both loops) and every in-flight waiter fails with the cause. Idempotent;
// only the first cause sticks.
func (m *muxConn) poison(cause error) {
	m.c.drop(m)
	m.mu.Lock()
	if m.broken == nil {
		m.broken = cause
		close(m.dead)
		m.conn.Close()
		//knnlint:allow detsource -- failure fanout to independent waiters; delivery order is unobservable
		for tag, ch := range m.waiters {
			//knnlint:allow lockio -- each waiter channel is cap-1 with exactly one send per tag; cannot block
			ch <- muxResult{err: cause}
			delete(m.waiters, tag)
		}
		m.noteOutstandingLocked()
	}
	m.mu.Unlock()
}

// forget abandons one call's waiter (deadline, cancellation, client
// close). A reply that later arrives for the tag is discarded by the read
// loop; the connection stays healthy.
func (m *muxConn) forget(tag uint64) {
	m.mu.Lock()
	delete(m.waiters, tag)
	m.noteOutstandingLocked()
	m.mu.Unlock()
}

// noteOutstandingLocked mirrors the waiter-table size into the
// outstanding-tags gauge. Caller holds m.mu.
func (m *muxConn) noteOutstandingLocked() {
	m.c.cm.outstanding.Set(int64(len(m.waiters)))
}

// writeLoop is the connection's single writer: it drains encoded frames
// in arrival order, returning each pooled writer once flushed. A write
// failure poisons the whole incarnation — the stream position is unknown,
// so no later frame could be framed safely either.
func (m *muxConn) writeLoop() {
	for {
		select {
		case w := <-m.writeCh:
			err := w.EndFrame(m.conn)
			wire.PutWriter(w)
			if err != nil {
				m.poison(fmt.Errorf("tcp: send query: %w", err))
				m.drainWrites()
				return
			}
		case <-m.dead:
			m.drainWrites()
			return
		}
	}
}

// drainWrites releases frames queued behind a poison so their pooled
// writers are not leaked. Their callers' waiters have already failed.
func (m *muxConn) drainWrites() {
	for {
		select {
		case w := <-m.writeCh:
			wire.PutWriter(w)
		default:
			return
		}
	}
}

// readLoop is the connection's single reader: it decodes tagged replies
// into caller-owned values (reusing one frame buffer — DecodeReply copies
// everything out) and routes each to its waiter. Any framing violation —
// an unframeable stream, an unexpected kind, an undecodable reply —
// poisons the incarnation and fails all in-flight waiters retryably.
func (m *muxConn) readLoop() {
	var buf []byte
	for {
		payload, err := wire.ReadFrameInto(m.conn, buf)
		if err != nil {
			m.poison(fmt.Errorf("tcp: read reply: %w", err))
			return
		}
		buf = payload
		r := wire.NewReader(payload)
		if kind := r.Kind(); kind != wire.KindReplyTagged {
			m.poison(fmt.Errorf("tcp: expected reply, got kind %d", kind))
			return
		}
		tag := r.Varint()
		rep, err := wire.DecodeReply(r)
		if err != nil {
			m.poison(fmt.Errorf("tcp: bad reply: %w", err))
			return
		}
		m.mu.Lock()
		ch, ok := m.waiters[tag]
		if ok {
			delete(m.waiters, tag)
			m.noteOutstandingLocked()
		}
		m.mu.Unlock()
		if ok {
			ch <- muxResult{rep: rep}
		}
		// No waiter: the call was abandoned (deadline or cancellation)
		// after the query went out; the late reply is dropped.
	}
}

// call runs one tagged round trip on this incarnation. transport reports
// whether the failure poisoned the connection (worth a reconnect retry),
// as opposed to a deadline, cancellation or closed client.
func (m *muxConn) call(ctx context.Context, q wire.Query) (rep wire.Reply, transport bool, err error) {
	m.mu.Lock()
	if m.broken != nil {
		err := m.broken
		m.mu.Unlock()
		return wire.Reply{}, !errors.Is(err, errClientClosed), err
	}
	tag := m.nextTag
	m.nextTag++
	ch := make(chan muxResult, 1)
	m.waiters[tag] = ch
	m.noteOutstandingLocked()
	m.mu.Unlock()

	w := wire.GetWriter()
	w.BeginFrame()
	wire.AppendQueryTagged(w, tag, q)

	var timeoutCh <-chan time.Time
	if m.c.opts.Timeout > 0 {
		timer := time.NewTimer(m.c.opts.Timeout)
		defer timer.Stop()
		timeoutCh = timer.C
	}
	select {
	//knnlint:allow poolown -- documented handoff: the writer goroutine takes ownership of w and puts it after flushing
	case m.writeCh <- w:
		// The writer goroutine owns w now.
	case <-m.dead:
		wire.PutWriter(w)
		res := <-ch // poison already failed every registered waiter
		return wire.Reply{}, !errors.Is(res.err, errClientClosed), res.err
	case <-timeoutCh:
		m.forget(tag)
		wire.PutWriter(w)
		m.c.cm.timeouts.Inc()
		return wire.Reply{}, false, &timeoutError{after: m.c.opts.Timeout}
	case <-ctx.Done():
		m.forget(tag)
		wire.PutWriter(w)
		return wire.Reply{}, false, ctx.Err()
	case <-m.c.closedCh:
		m.forget(tag)
		wire.PutWriter(w)
		return wire.Reply{}, false, errClientClosed
	}

	select {
	case res := <-ch:
		if res.err != nil {
			return wire.Reply{}, !errors.Is(res.err, errClientClosed), res.err
		}
		return res.rep, false, nil
	case <-timeoutCh:
		m.forget(tag)
		m.c.cm.timeouts.Inc()
		return wire.Reply{}, false, &timeoutError{after: m.c.opts.Timeout}
	case <-ctx.Done():
		m.forget(tag)
		return wire.Reply{}, false, ctx.Err()
	case <-m.c.closedCh:
		m.forget(tag)
		return wire.Reply{}, false, errClientClosed
	}
}

// Do sends one query and waits for the reply. A Reply with a non-empty Err
// is returned as a Go error; degraded-cluster errors match
// errors.Is(err, ErrDegraded). See Client for the retry semantics.
func (c *Client) Do(q wire.Query) (wire.Reply, error) {
	return c.DoContext(context.Background(), q)
}

// DoContext is Do with a per-call context: cancellation abandons the call
// (the reply, if it arrives, is discarded) without disturbing the other
// queries multiplexed on the connection.
func (c *Client) DoContext(ctx context.Context, q wire.Query) (wire.Reply, error) {
	c.cm.queries.Inc()
	rep, transport, err := c.attempt(ctx, q)
	if err == nil || c.opts.RetryWait < 0 || ctx.Err() != nil {
		return rep, err
	}
	if !errors.Is(err, ErrDegraded) {
		if !transport {
			// A remote validation or program error, a deadline, or a
			// closed client — deterministic, not worth a retry.
			return wire.Reply{}, err
		}
		// Poisoned or never connected: the next attempt reconnects. A
		// degraded reply on the fresh connection still gets the full
		// RetryWait ride-out below — a frontend restart surfaces as a
		// transport failure followed by a degraded window.
		c.cm.retries.Inc()
		if rep, _, err = c.attempt(ctx, q); err == nil || !errors.Is(err, ErrDegraded) {
			return rep, err
		}
	}
	budget := c.opts.RetryWait
	if budget == 0 {
		budget = defaultRetryWait
	}
	//knnlint:allow detsource -- retry budget is wall-clock by design; it bounds waiting, never the answer
	deadline := time.Now().Add(budget)
	timer := time.NewTimer(degradedRetryInterval)
	defer timer.Stop()
	for {
		//knnlint:allow detsource -- retry budget is wall-clock by design; it bounds waiting, never the answer
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return wire.Reply{}, err
		}
		wait := degradedRetryInterval
		if wait > remaining {
			wait = remaining
		}
		// The wait holds no lock — concurrent queries are not queued
		// behind one caller's ride-out budget — and Close (or the
		// caller's context) aborts it promptly instead of sleeping
		// through the rest of the budget.
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-c.closedCh:
			return wire.Reply{}, errClientClosed
		case <-ctx.Done():
			return wire.Reply{}, ctx.Err()
		}
		c.cm.retries.Inc()
		rep, _, rerr := c.attempt(ctx, q)
		if rerr == nil {
			return rep, nil
		}
		if !errors.Is(rerr, ErrDegraded) {
			return wire.Reply{}, rerr
		}
		err = rerr
	}
}

// attempt runs one query round trip on the live incarnation, dialing one
// if needed. transport reports whether the failure poisoned the
// connection (a dial, I/O or framing fault — worth a reconnect retry), as
// opposed to a deterministic remote error, a deadline or a closed client.
func (c *Client) attempt(ctx context.Context, q wire.Query) (wire.Reply, bool, error) {
	m, err := c.conn()
	if err != nil {
		return wire.Reply{}, !errors.Is(err, errClientClosed), err
	}
	rep, transport, err := m.call(ctx, q)
	if err != nil {
		return wire.Reply{}, transport, err
	}
	if rep.Err != "" {
		if rep.Degraded {
			c.cm.degraded.Inc()
			return wire.Reply{}, false, fmt.Errorf("tcp: remote: %s: %w", rep.Err, ErrDegraded)
		}
		return wire.Reply{}, false, fmt.Errorf("tcp: remote: %s", rep.Err)
	}
	return rep, false, nil
}

// Close releases the connection. Every in-flight call and every
// degraded-retry sleep wakes promptly with a closed-client error.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.closedCh)
	m := c.mc
	c.mc = nil
	c.mu.Unlock()
	if m != nil {
		m.poison(errClientClosed)
	}
	return nil
}

// LocalCluster is an in-process serving deployment over loopback sockets:
// one frontend plus k resident nodes, each on its own goroutine. It exists
// for tests, benchmarks and single-binary demos of the serving path.
type LocalCluster struct {
	fe       *Frontend
	serveErr chan error
	wg       sync.WaitGroup

	mu       sync.Mutex
	nodeErrs []error

	closeOnce sync.Once
	closeErr  error
}

// ServeLocalOptions starts a loopback serving cluster with an explicit
// epoch scheduler configuration (pipelining window, server-side batching).
// newHandler builds one Handler per node (each node needs its own instance,
// since a Handler keeps per-node state); node identities are assigned at
// join time, so handlers learn their seat from the Load call. nodeReg receives every node's serve-loop telemetry (the k nodes
// share it, so its node_* counters are cluster-wide totals); nil records
// nothing. The cluster is ready to serve (and Addr dialable by clients)
// when ServeLocalOptions returns.
func ServeLocalOptions(k int, opts FrontendOptions, nodeReg *obs.Registry, newHandler func() Handler) (*LocalCluster, error) {
	fe, err := NewFrontendOptions("127.0.0.1:0", k, opts)
	if err != nil {
		return nil, err
	}
	lc := &LocalCluster{fe: fe, serveErr: make(chan error, 1)}
	go func() { lc.serveErr <- fe.Serve() }()
	for i := 0; i < k; i++ {
		lc.wg.Add(1)
		go func() {
			defer lc.wg.Done()
			// A lost session (the node was evicted, or the frontend died
			// first) is expected churn, not a cluster failure: the caller
			// that evicted the node re-joins it — or meant to drop it.
			if err := ServeNodeObserved(fe.Addr(), nodeReg, newHandler()); err != nil && !errors.Is(err, ErrSessionLost) {
				lc.mu.Lock()
				lc.nodeErrs = append(lc.nodeErrs, err)
				lc.mu.Unlock()
			}
		}()
	}
	// Wait until the session is ready (or failed) before handing it out.
	<-fe.ready
	if fe.readyErr != nil {
		err := fe.readyErr
		lc.Close()
		return nil, err
	}
	return lc, nil
}

// Addr returns the frontend address clients should dial.
func (lc *LocalCluster) Addr() string { return lc.fe.Addr() }

// EvictNode forcibly retires node id (see Frontend.EvictNode); re-join it
// with a fresh ServeNodeObserved against Addr.
func (lc *LocalCluster) EvictNode(id int) error { return lc.fe.EvictNode(id) }

// Close shuts the cluster down and reports the first failure observed by
// the frontend or any node. It is idempotent: every call returns the same
// result, and none of them blocks on work a previous call already drained.
func (lc *LocalCluster) Close() error {
	lc.closeOnce.Do(func() {
		lc.fe.Close()
		err := <-lc.serveErr
		lc.wg.Wait()
		lc.mu.Lock()
		defer lc.mu.Unlock()
		if err != nil {
			lc.closeErr = err
			return
		}
		if len(lc.nodeErrs) > 0 {
			lc.closeErr = lc.nodeErrs[0]
		}
	})
	return lc.closeErr
}
