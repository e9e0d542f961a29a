//go:build linux || darwin

package service

import "syscall"

// peeker is what open needs of a connection's socket, made on first use:
// the raw connection and the read hook that peeks it.
type peeker struct {
	rc  syscall.RawConn
	fn  func(fd uintptr) bool
	err error
	buf [1]byte
}

// open reports whether an idle connection can carry another exchange:
// nothing unread is buffered, and a non-blocking MSG_PEEK finds the socket
// empty but open — not at EOF (the server closed it while it sat idle, as
// a restarted backend does), not holding bytes nobody asked for, not in
// error. A stale connection caught here costs no failed attempt.
func (c *conn) open() bool {
	if c.br.Buffered() > 0 {
		return false
	}
	p := &c.peek
	if p.fn == nil {
		sc, ok := c.nc.(syscall.Conn)
		if !ok {
			return true
		}
		rc, err := sc.SyscallConn()
		if err != nil {
			return false
		}
		p.rc = rc
		p.fn = func(fd uintptr) bool {
			_, _, p.err = syscall.Recvfrom(int(fd), p.buf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
			return true
		}
	}
	return p.rc.Read(p.fn) == nil && p.err == syscall.EAGAIN
}
