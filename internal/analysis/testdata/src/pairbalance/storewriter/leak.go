// Golden fixture for pairbalance's storewriter rule, loaded under
// viper/internal/relay and using the real chunkstore.Writer. The leak
// case is the bug class the rule exists for: a build abandoned on an
// early return between Begin and the hand-off drops its write handle
// without Abort, so every entry the handle appended or deduplicated
// against stays pinned and its segments are never reclaimed
// (DESIGN §12).
package storewriterfix

import (
	"errors"

	"viper/internal/chunkstore"
	"viper/internal/vformat"
)

var errSuperseded = errors.New("superseded")

type building struct {
	w *chunkstore.Writer
}

// leakOnEarlyReturn aborts on the append error but forgets the handle
// when the build is superseded.
func leakOnEarlyReturn(s *chunkstore.Store, h vformat.ChunkHash, rec []byte, superseded bool) error {
	w := s.Begin()
	if err := w.Append(h, rec); err != nil {
		w.Abort()
		return err
	}
	if superseded {
		return errSuperseded // want "store write handle w is neither committed, aborted nor parked on this return path"
	}
	return w.Commit("m", 1, "k", nil, []vformat.ChunkHash{h})
}

// finishedOnEveryPath is the PutBlob shape: Abort on the error path,
// Commit on the success path. Append is a use of the handle, not a
// hand-off.
func finishedOnEveryPath(s *chunkstore.Store, h vformat.ChunkHash, rec []byte) error {
	w := s.Begin()
	if err := w.Append(h, rec); err != nil {
		w.Abort()
		return err
	}
	return w.Commit("m", 1, "k", nil, []vformat.ChunkHash{h})
}

// parkedOnBuild hands the handle to a build: whoever drops the build
// (commit, supersede, connection teardown) finishes it.
func parkedOnBuild(s *chunkstore.Store, b *building) {
	w := s.Begin()
	b.w = w
}

// parkedInLiteral is the same hand-off through a composite literal.
func parkedInLiteral(s *chunkstore.Store) *building {
	w := s.Begin()
	return &building{w: w}
}

// neverFinished opens a handle and falls off the end of the function.
func neverFinished(s *chunkstore.Store, h vformat.ChunkHash, rec []byte) {
	w := s.Begin()
	_ = w.Append(h, rec)
} // want "store write handle w is neither committed, aborted nor parked on this return path"
