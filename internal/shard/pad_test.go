package shard

import (
	"testing"
	"unsafe"
)

// TestDispatcherStatsPadding is the satellite bugfix audit: statsMu (taken
// by Stats() pollers on arbitrary goroutines) must not share a cache line
// with the flusher's per-batch scratch — previously a Stats poll bounced
// the line the flusher writes on every flush.
func TestDispatcherStatsPadding(t *testing.T) {
	var d pipeDispatcher
	scratchEnd := unsafe.Offsetof(d.res) + unsafe.Sizeof(d.res)
	statsMu := unsafe.Offsetof(d.statsMu)
	if statsMu-scratchEnd < cacheLine {
		t.Errorf("statsMu (offset %d) within a cache line of flusher scratch (ends %d)",
			statsMu, scratchEnd)
	}
}
