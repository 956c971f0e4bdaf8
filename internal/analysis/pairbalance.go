// pairbalance enforces table-driven acquire/release pairing on the one
// protocol pair left whose balance is not a property of a type: the
// store write handle Begin/Commit|Abort (DESIGN §12). A
// chunkstore.Writer pins every entry it appended or deduplicated against
// until it finishes, so a handle dropped on an early return keeps its
// segments out of reclaim for the life of the process, and a handle
// finished twice hides a path that believed it still had pins. Parking
// the handle on a build (a building field or literal) hands the
// obligation to whoever drops the build.
//
// The rule rides the ownership engine in dataflow.go; selector-field
// receivers (b.w) are untracked by design — false negatives over false
// positives. The relay's version pins and chunk references, which two
// more rules here used to police, no longer exist (DESIGN §11).

package analysis

var pairbalanceRules = []*ownRule{
	{
		key: "storewriter",
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
	Doc:  "store write handle Begin/Commit|Abort pairs must balance on every path",
	Run: func(pass *Pass) {
		runOwnership(pass, pairbalanceRules)
	},
}
