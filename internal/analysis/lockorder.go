// lockorder reports cycles in the module-wide lock-acquisition-order
// graph built by locksummary.go: if one code path acquires lock B while
// holding A and another acquires A while holding B — directly or through
// any chain of helper calls — two goroutines can each take the first
// lock and block forever on the second. A self-edge (reacquiring a lock
// identity already held) is the degenerate cycle: a guaranteed
// self-deadlock on a non-reentrant sync.Mutex, or the classic AB-BA
// hazard between two instances of the same type. The PR-6 retry-path
// bug class — a sleep-and-retry helper taking locks in the opposite
// order of the send path that called it — is exactly the
// helper-mediated shape the callee summaries make visible.
//
// Each edge that participates in a cycle is reported in the package
// that created it, so a cross-package cycle surfaces once per
// contributing site. //lint:ignore lockorder waivers apply per site.

package analysis

// LockOrder reports potential deadlocks from inconsistent lock order.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "lock-acquisition-order cycles across the delivery packages (potential deadlock)",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) {
	if !lockorderScope[pass.ImportPath] {
		return
	}
	for _, e := range pass.Prog.lockGraphInfo().cycleEdges {
		if e.pkgPath != pass.ImportPath {
			continue
		}
		switch {
		case e.from == e.to && e.via != "":
			pass.Reportf(e.pos, "call to %s acquires %s while it is already held: self-deadlock on a non-reentrant mutex (or AB-BA between two instances)", e.via, e.to)
		case e.from == e.to:
			pass.Reportf(e.pos, "acquiring %s while it is already held: self-deadlock on a non-reentrant mutex (or AB-BA between two instances)", e.to)
		case e.via != "":
			pass.Reportf(e.pos, "call to %s acquires %s while holding %s, but another path acquires them in the opposite order: potential deadlock", e.via, e.to, e.from)
		default:
			pass.Reportf(e.pos, "acquiring %s while holding %s, but another path acquires them in the opposite order: potential deadlock", e.to, e.from)
		}
	}
}
