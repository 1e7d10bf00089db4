package scpm

import (
	"github.com/scpm/scpm/internal/snapshot"
)

// SnapshotBoot is a graph + index pair restored from a v3 snapshot.
// The pair may be backed by views over the snapshot's mapped bytes:
// keep the boot open for as long as either is in use (including any
// later graph generations derived from it with Apply, which share the
// base graph's arenas by reference) and Close it only when done.
type SnapshotBoot = snapshot.Boot

// SnapshotOptions configures OpenSnapshot; the zero value (table-level
// verification) is the default boot. Its Mode field is ignored.
type SnapshotOptions = snapshot.Options

// ErrSnapshotRegenerate reports a snapshot of the retired v2
// (index-only) format, which this build no longer reads: mine the
// dataset again and write a fresh snapshot with WriteSnapshot.
var ErrSnapshotRegenerate = snapshot.ErrRegenerate

// WriteSnapshot atomically writes the v3 snapshot of a graph/index
// pair: a self-contained, mmap-able file from which OpenSnapshot
// restores both in milliseconds. The index must have been built from
// exactly that graph.
func WriteSnapshot(path string, g *Graph, x *Index) error {
	return snapshot.Write(path, g, x)
}

// OpenSnapshot restores the graph/index pair of a v3 snapshot written
// by WriteSnapshot. A v2 file yields ErrSnapshotRegenerate.
func OpenSnapshot(path string, opts SnapshotOptions) (*SnapshotBoot, error) {
	return snapshot.Open(path, opts)
}
