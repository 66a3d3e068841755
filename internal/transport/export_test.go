package transport

// Stop halts the sender. In-flight packets keep travelling.
func (c *Conn) Stop() {
	c.running = false
	c.rtoTimer.Cancel()
}
