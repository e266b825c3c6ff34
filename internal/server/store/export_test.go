package store

// OpenFloor opens a WAL that compacts at max(floor, compactFactor × its
// compacted size) instead of minCompactBytes, so tests reach the
// compaction rule with small journals.
func OpenFloor(opts Options, floor int64) (*WAL, error) {
	return open(opts, floor)
}

// Fold returns the WAL's folded in-memory state in submit order.
func Fold(w *WAL) []JobRecord {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.snapshotLocked()
}

// CompactedSize returns the bytes a compaction of w's fold would write.
func CompactedSize(w *WAL) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return compactedSize(w.snapshotLocked())
}
