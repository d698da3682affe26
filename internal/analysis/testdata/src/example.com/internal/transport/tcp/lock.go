// Fixture for lockio (package path suffix internal/transport/tcp puts it
// in scope): no mutex held across blocking network I/O or channel
// operations.
package tcp

import (
	"net"
	"sync"
	"time"

	"distknn/internal/wire"
)

type peer struct {
	mu   sync.Mutex
	conn *net.TCPConn
	ch   chan int
}

func (p *peer) badFrameWrite(frame []byte) {
	p.mu.Lock()
	wire.WriteFrame(p.conn, frame) // want `wire.WriteFrame while holding p.mu`
	p.mu.Unlock()
}

func (p *peer) badFrameRead() {
	p.mu.Lock()
	defer p.mu.Unlock()
	wire.ReadFrame(p.conn) // want `wire.ReadFrame while holding p.mu`
}

func (p *peer) badSend(v int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ch <- v // want `channel send while holding p.mu`
}

func (p *peer) badRecv() int {
	p.mu.Lock()
	v := <-p.ch // want `channel receive while holding p.mu`
	p.mu.Unlock()
	return v
}

func (p *peer) badConnWrite(b []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.conn.Write(b) // want `net connection Write while holding p.mu`
}

func (p *peer) badDial(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	net.Dial("tcp", addr) // want `net.Dial while holding p.mu`
}

func (p *peer) badDialer(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := net.Dialer{Timeout: time.Second}
	d.Dial("tcp", addr)             // want `net.Dialer.Dial while holding p.mu`
	d.DialContext(nil, "tcp", addr) // want `net.Dialer.DialContext while holding p.mu`
}

func (p *peer) badEndFrame(w *wire.Writer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w.EndFrame(p.conn) // want `Writer.EndFrame \(socket write\) while holding p.mu`
}

func (p *peer) badSelect() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	select { // want `select with no default while holding p.mu`
	case v := <-p.ch:
		return v
	}
}

func (p *peer) goodAfterUnlock(frame []byte) {
	p.mu.Lock()
	conn := p.conn
	p.mu.Unlock()
	wire.WriteFrame(conn, frame)
}

func (p *peer) goodTeardown() {
	// Close and Set*Deadline are quick; exactly what a teardown path
	// legitimately does under the lock.
	p.mu.Lock()
	defer p.mu.Unlock()
	p.conn.SetWriteDeadline(time.Now().Add(time.Second))
	p.conn.Close()
}

func (p *peer) goodGoroutine(frame []byte) {
	// The spawned goroutine does not run under the caller's lock.
	p.mu.Lock()
	defer p.mu.Unlock()
	go func() {
		wire.WriteFrame(p.conn, frame)
	}()
}

func (p *peer) goodNonBlockingSelect() {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case p.ch <- 1:
	default:
	}
}

func (p *peer) auditedWrite(frame []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	//knnlint:allow lockio -- handshake serialization: the conn carries a deadline, a wedge resolves in one timeout
	wire.WriteFrame(p.conn, frame)
}
