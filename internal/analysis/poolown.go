// poolown enforces the DESIGN §8 buffer-pool ownership contract on the
// encode path: a pooled exact-size blob returned by
// vformat.EncodeChunked or detached from its encoder by
// ChunkEncoder.Detach (or drawn via getBuf inside vformat itself) must
// be released exactly once — vformat.ReleaseBuffer / putBuf — or have
// its ownership transferred (sent, returned, stored, captured). The
// historical bug class is PR 4's header-send-failure recovery: an error
// return between encode and send that leaks the blob back to the GC
// instead of the pool. The analyzer flags leak-on-return paths,
// double-release, use-after-release, and rebinding a buffer whose
// release is pending via a direct `defer putBuf(b)` (the defer already
// evaluated its argument, so the old value is freed while the new one
// leaks — the PR-10 growBuf double-pool); see dataflow.go for the
// engine and DESIGN.md §7b for its limits.

package analysis

var poolownScope = map[string]bool{
	"viper/internal/vformat":    true,
	"viper/internal/core":       true,
	"viper/internal/remote":     true,
	"viper/internal/relay":      true,
	"viper/internal/coupled":    true,
	"viper/internal/chunkstore": true,
}

var poolownRules = []*ownRule{
	{
		key: "blob",
		acquires: []callPattern{
			{pkgPath: "viper/internal/vformat", funcName: "EncodeChunked", token: tokenResult},
			{pkgPath: "viper/internal/vformat", funcName: "getBuf", token: tokenResult},
			// Detach moves the blob out of its encoder: from here on it is
			// the caller's to release or park, and the encoder's own
			// Release is a no-op (the remote producer's retained blob).
			{pkgPath: "viper/internal/vformat", typeName: "ChunkEncoder", funcName: "Detach", token: tokenResult},
		},
		releases: []callPattern{
			{pkgPath: "viper/internal/vformat", funcName: "ReleaseBuffer", token: tokenArg},
			{pkgPath: "viper/internal/vformat", funcName: "putBuf", token: tokenArg},
		},
		scope:       poolownScope,
		leakMsg:     "pooled blob %s leaks on this return path: release it (vformat.ReleaseBuffer) or transfer ownership before returning (DESIGN §8)",
		doubleMsg:   "pooled blob %s released twice: the pool would hand the same backing array to two owners (DESIGN §8)",
		useAfterMsg: "pooled blob %s used after release: the pool may already have re-issued its backing array (DESIGN §8)",
		rebindMsg:   "pooled blob %s reassigned after defer captured it for release: the deferred call frees the old value, double-pooling it or leaking the new one — defer a closure instead (DESIGN §8)",
	},
	{
		// The chunk store's segment scratch pool follows the same
		// exactly-once contract: getBuf buffers back entry assembly, log
		// replay, and compaction reads, and a buffer that escapes putBuf
		// on an error return grows the heap on every crash-recovery pass.
		key: "scratch",
		acquires: []callPattern{
			{pkgPath: "viper/internal/chunkstore", funcName: "getBuf", token: tokenResult},
		},
		releases: []callPattern{
			{pkgPath: "viper/internal/chunkstore", funcName: "putBuf", token: tokenArg},
		},
		scope:       poolownScope,
		leakMsg:     "pooled scratch buffer %s leaks on this return path: return it with putBuf or transfer ownership before returning (DESIGN §12)",
		doubleMsg:   "pooled scratch buffer %s released twice: the pool would hand the same backing array to two owners (DESIGN §12)",
		useAfterMsg: "pooled scratch buffer %s used after putBuf: the pool may already have re-issued its backing array (DESIGN §12)",
		rebindMsg:   "pooled scratch buffer %s reassigned after defer captured it for putBuf: the deferred call pools the old value, double-pooling it or leaking the new one — defer a closure instead (DESIGN §12)",
	},
	{
		key: "encoder",
		acquires: []callPattern{
			{pkgPath: "viper/internal/vformat", funcName: "NewChunkEncoder", token: tokenResult},
		},
		releases: []callPattern{
			{pkgPath: "viper/internal/vformat", typeName: "ChunkEncoder", funcName: "Release", token: tokenRecv},
		},
		scope:       poolownScope,
		handleToken: true,
		leakMsg:     "chunk encoder %s leaks on this return path: call its Release to return the pooled blob (DESIGN §8)",
		doubleMsg:   "chunk encoder %s released twice (DESIGN §8)",
		useAfterMsg: "chunk encoder %s used after Release: its blob is back in the pool (DESIGN §8)",
	},
}

// PoolOwn flags violations of the pooled-blob ownership protocol.
var PoolOwn = &Analyzer{
	Name: "poolown",
	Doc:  "pooled encode-path blobs must be released exactly once or ownership-transferred (DESIGN §8)",
	Run: func(pass *Pass) {
		runOwnership(pass, poolownRules)
	},
}
