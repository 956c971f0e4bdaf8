// pairbalance enforces table-driven acquire/release pairing on the
// protocol pairs PRs 5, 9 and 14 introduced:
//
//   - relay pin/unpin: a cache version pinned for a send (Relay.pin,
//     reached through next()) must be unpinned on every path, or
//     eviction blocks forever; and a version born in-function
//     (composite literal) must not be unpinned without a dominating
//     pin — the pre-PR-6 unpinned-eviction bug class.
//   - chunk refcount retain/release (DESIGN §11): a content-addressed
//     store entry retained for a version build must be parked in a
//     held list (ownership transfer) or released on every path — a
//     superseded build that drops its entries without releaseChunk
//     strands their refcounts above zero and the store never evicts
//     the records (leak-on-supersede).
//
//   - store write handle Begin/Commit|Abort (DESIGN §12): a
//     chunkstore.Writer pins every entry it appended or deduplicated
//     against until it finishes, so a handle dropped on an early return
//     keeps its segments out of reclaim for the life of the process,
//     and a handle finished twice hides a path that believed it still
//     held pins. Parking the handle on a build (a building/version
//     field or literal) hands the obligation to whoever drops the
//     build.
//
// All three rules ride the ownership engine in dataflow.go;
// selector-field receivers (b.w) are untracked by design — false
// negatives over false positives.

package analysis

var pairbalanceRules = []*ownRule{
	{
		key:  "pin",
		what: "pin",
		acquires: []callPattern{
			{pkgPath: "viper/internal/relay", typeName: "Relay", funcName: "pin", token: tokenArg},
		},
		releases: []callPattern{
			{pkgPath: "viper/internal/relay", typeName: "Relay", funcName: "unpin", token: tokenArg},
		},
		scope: map[string]bool{
			"viper/internal/relay": true,
		},
		reportUnacquired: true,
		leakMsg:          "pinned version %s is not unpinned on this return path: eviction of its generation blocks until the pin count drains",
		doubleMsg:        "version %s unpinned twice: the pin count goes negative and eviction may free it while still in use",
		useAfterMsg:      "version %s used after unpin: eviction may have freed it already",
		unacquiredMsg:    "version %s unpinned without a dominating pin: it was created in this function and never pinned",
	},
	{
		key:  "chunkref",
		what: "chunk reference",
		acquires: []callPattern{
			{pkgPath: "viper/internal/relay", typeName: "Relay", funcName: "retainChunk", token: tokenArg},
		},
		releases: []callPattern{
			{pkgPath: "viper/internal/relay", typeName: "Relay", funcName: "releaseChunk", token: tokenArg},
		},
		scope: map[string]bool{
			"viper/internal/relay": true,
		},
		reportUnacquired: true,
		leakMsg:          "chunk entry %s retained but not released or parked on this return path: its refcount never drains and the store leaks the record on supersede (DESIGN §11)",
		doubleMsg:        "chunk entry %s released twice: the refcount can hit zero while another version still holds it and the store frees a live record (DESIGN §11)",
		useAfterMsg:      "chunk entry %s used after release: the store may already have evicted its record (DESIGN §11)",
		unacquiredMsg:    "chunk entry %s released without a dominating retain: it was created in this function and never retained, so the refcount goes negative (DESIGN §11)",
	},
	{
		key:  "storewriter",
		what: "store write handle",
		acquires: []callPattern{
			{pkgPath: "viper/internal/chunkstore", typeName: "Store", funcName: "Begin", token: tokenResult},
		},
		releases: []callPattern{
			{pkgPath: "viper/internal/chunkstore", typeName: "Writer", funcName: "Commit", token: tokenRecv},
			{pkgPath: "viper/internal/chunkstore", typeName: "Writer", funcName: "Abort", token: tokenRecv},
		},
		scope: map[string]bool{
			"viper/internal/relay":      true,
			"viper/internal/chunkstore": true,
		},
		handleToken: true,
		leakMsg:     "store write handle %s is neither committed, aborted nor parked on this return path: the entries it pinned are never reclaimed (DESIGN §12)",
		doubleMsg:   "store write handle %s finished twice: the second Commit/Abort is dead code on a path that thinks it still holds pins (DESIGN §12)",
		useAfterMsg: "store write handle %s used after Commit/Abort: it holds no pins and refuses further appends (DESIGN §12)",
	},
}

// PairBalance flags unbalanced acquire/release protocol pairs.
var PairBalance = &Analyzer{
	Name: "pairbalance",
	Doc:  "relay pin/unpin, chunk retain/release, and store write handle Begin/Commit|Abort pairs must balance on every path",
	Run: func(pass *Pass) {
		runOwnership(pass, pairbalanceRules)
	},
}
