//go:build !linux && !darwin

package service

// peeker is empty where the socket cannot be peeked.
type peeker struct{}

// open reports whether an idle connection can carry another exchange. Where
// the socket cannot be peeked, only what the reader buffered is checked; a
// connection the server closed then fails its attempt and is retried.
func (c *conn) open() bool { return c.br.Buffered() == 0 }
