package service

// StallShards takes every shard's turn, behind the operations already
// waiting for it, so a Decide submitted next stays in flight until release
// gives the turns back.
func StallShards(c *Controller) (release func()) {
	for _, sh := range c.shards {
		sh.turn <- struct{}{}
	}
	return func() {
		for _, sh := range c.shards {
			<-sh.turn
		}
	}
}

// RaceEnabled exposes raceEnabled to package service_test.
const RaceEnabled = raceEnabled

// DedupOf exposes the controller's idempotency window to package
// service_test.
func DedupOf(c *Controller) *DedupWindow { return c.dedup }

// ReadDecideHead exposes the server's in-place decide head reader to
// package service_test: what it found, and whether it read the head.
func ReadDecideHead(buf []byte) (host string, length int, close bool, n int, ok bool) {
	h, n, ok := readDecideHead(buf)
	return string(h.host), h.length, h.close, n, ok
}
