package characterize

// ReplayCount reports the number of trace traversals performed by this
// process so far (see replays). A characterization served from the
// persistent cache performs none.
func ReplayCount() uint64 { return replays.Load() }

// Waiters reports the current per-key wait counter: how many callers are
// blocked on key's in-flight computation right now (0 when none is in
// flight). Exposed for tests and diagnostics.
func (c *MemCache) Waiters(key string) int {
	if c == nil {
		return 0
	}
	c.lock()
	defer c.unlock()
	if f, ok := c.inflight[key]; ok {
		return f.waiters
	}
	return 0
}
