// Fixtures for the boundedwait analyzer: the host-assist acknowledge
// wait is a package-level function, called package-qualified.
package core

func DevAwaitAssistAck(seq uint64) {}

func DevAwaitAssistAckTimeout(seq uint64, d int) bool { return true }
