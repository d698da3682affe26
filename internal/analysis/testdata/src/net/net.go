// Package net is a fixture stub: a connection type whose blocking methods
// (Read/Write) and quick methods (Close, Set*Deadline), and a dialer whose
// dials block, let the lockio analyzer's testdata typecheck hermetically.
package net

import "time"

type TCPConn struct{}

func (c *TCPConn) Read(b []byte) (int, error)         { return 0, nil }
func (c *TCPConn) Write(b []byte) (int, error)        { return 0, nil }
func (c *TCPConn) Close() error                       { return nil }
func (c *TCPConn) SetDeadline(t time.Time) error      { return nil }
func (c *TCPConn) SetWriteDeadline(t time.Time) error { return nil }

func Dial(network, address string) (*TCPConn, error) { return nil, nil }

type Dialer struct{ Timeout time.Duration }

func (d *Dialer) Dial(network, address string) (*TCPConn, error) { return nil, nil }
func (d *Dialer) DialContext(ctx any, network, address string) (*TCPConn, error) {
	return nil, nil
}
