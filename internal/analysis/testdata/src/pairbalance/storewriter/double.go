package storewriterfix

import (
	"viper/internal/chunkstore"
	"viper/internal/vformat"
)

// doubleFinish defers Abort and then commits: the handle is finished
// twice on the success path. Abort after Commit happens to be a no-op
// at run time, which is exactly why the path that relies on it goes
// unnoticed — finish a handle once per path.
func doubleFinish(s *chunkstore.Store, h vformat.ChunkHash, rec []byte) error {
	w := s.Begin()
	defer w.Abort()
	if err := w.Append(h, rec); err != nil {
		return err
	}
	return w.Commit("m", 1, "k", nil, []vformat.ChunkHash{h}) // want "store write handle w finished twice"
}

// abortTwice releases the same handle on one straight-line path.
func abortTwice(s *chunkstore.Store) {
	w := s.Begin()
	w.Abort()
	w.Abort() // want "store write handle w finished twice"
}

// appendAfterCommit keeps using a handle that holds no pins any more.
func appendAfterCommit(s *chunkstore.Store, h vformat.ChunkHash, rec []byte) error {
	w := s.Begin()
	if err := w.Commit("m", 1, "k", nil, []vformat.ChunkHash{h}); err != nil {
		return err
	}
	return w.Append(h, rec) // want "store write handle w used after Commit/Abort"
}
