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
