package service

// StallShards parks every shard loop behind the commands already queued,
// so a Decide submitted next stays in flight until release is called.
func StallShards(c *Controller) (release func()) {
	gate := make(chan struct{})
	for _, sh := range c.shards {
		sh.cmds <- func() { <-gate }
	}
	return func() { close(gate) }
}

// DedupOf exposes the controller's idempotency window to package
// service_test.
func DedupOf(c *Controller) *DedupWindow { return c.dedup }
