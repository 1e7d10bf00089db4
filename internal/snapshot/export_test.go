package snapshot

import "github.com/scpm/scpm/internal/mmapio"

// OpenHeap opens path like Open but always through the heap-read
// region Open falls back to where mmap is unavailable, so tests run
// that path on every host.
func OpenHeap(path string, verify Verify) (*Boot, error) {
	m, err := mmapio.OpenHeap(path)
	if err != nil {
		return nil, err
	}
	boot, err := assemble(m, verify)
	if err != nil {
		m.Close()
		return nil, err
	}
	return boot, nil
}
