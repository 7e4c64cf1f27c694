package index

// HoldFolds stalls every pump of s until release is called, so a test can
// overflow the subscription queues deterministically and force a heal.
// Creating a document while folds are held deadlocks.
func HoldFolds(s *Service) (release func()) {
	s.mu.Lock()
	return s.mu.Unlock
}

// WaitFolded blocks until every event published before the call has been
// folded, without re-tokenizing the dirty documents as Sync does.
func WaitFolded(s *Service) { s.waitFolded() }
