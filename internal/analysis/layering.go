// layering enforces the repository's import DAG so the numeric core can
// never grow a dependency on the networked delivery layers:
//
//   - tensor, nn, dataset, and curvefit (the math/model layer) must
//     never import transport, kvstore, pubsub, or remote (the delivery
//     layer) — models stay usable without any networking linked in;
//   - simclock imports no internal package at all — every layer charges
//     time against it, so any internal import would be a cycle risk and
//     would let wall-clock behaviour leak into the virtual-time root;
//   - metrics is a leaf for the same reason: every subsystem registers
//     its instruments there, so an internal import from metrics would be
//     one hop from a cycle and would couple the observability surface to
//     the code it observes;
//   - bufpool is a leaf too: every package that moves bytes draws its
//     buffers there;
//   - chunkstore is the durable storage leaf: relay, remote, and core
//     all persist through it, so an import of any delivery-layer package
//     from chunkstore would cycle the DAG and drag networking into every
//     process that only wants local durability;
//   - core is the in-process composition root and stays leaf-only: only
//     the top-level composition layers (coupled, experiments, remote,
//     relay) may import it, keeping "depends on core" equivalent to "is a
//     deployment harness";
//   - the real stack (transport, remote, relay, chunkstore, vformat,
//     kvstore, pubsub) imports neither memsim nor h5lite: the simulator's
//     tiers, modelled links and h5py baseline model the system, they are
//     not a layer of it.

package analysis

import (
	"strconv"
	"strings"
)

// Layering reports imports that violate the repository's layer rules.
var Layering = &Analyzer{
	Name: "layering",
	Doc:  "import violates the repo's layer DAG (math layer -> delivery layer, simclock/metrics/bufpool leaves, core leaf-only, simulator out of the real stack)",
	Run:  runLayering,
}

const internalPrefix = "viper/internal/"

// mathLayer must never depend on deliveryLayer.
var mathLayer = map[string]bool{
	"tensor": true, "nn": true, "dataset": true, "curvefit": true,
}

var deliveryLayer = map[string]bool{
	"transport": true, "kvstore": true, "pubsub": true, "remote": true,
	"relay": true,
}

// leaves import nothing from the repository; the value is the reason.
var leaves = map[string]string{
	"simclock": "it is the virtual-time root every layer depends on",
	"metrics":  "it is the observability leaf every subsystem registers into",
	"bufpool":  "it is the buffer leaf every byte-moving package draws from",
}

// coreImporters are the only internal packages allowed to import core.
var coreImporters = map[string]bool{
	"coupled": true, "experiments": true, "remote": true, "relay": true,
}

// realStack are the packages the deployed system runs on; simulator are
// the packages that only model it.
var (
	realStack = map[string]bool{
		"transport": true, "remote": true, "relay": true, "chunkstore": true,
		"vformat": true, "kvstore": true, "pubsub": true,
	}
	simulator = map[string]bool{"memsim": true, "h5lite": true}
)

func runLayering(pass *Pass) {
	if !strings.HasPrefix(pass.ImportPath, internalPrefix) {
		return // cmd/, examples/, and the root package may compose freely
	}
	self := strings.TrimPrefix(pass.ImportPath, internalPrefix)
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, leaf := leaves[self]; leaf && strings.HasPrefix(path, "viper/") {
				pass.Reportf(imp.Pos(), "%s must not import %s: %s", self, path, why)
				continue
			}
			target := strings.TrimPrefix(path, internalPrefix)
			if target == path {
				continue // not an internal import
			}
			if mathLayer[self] && deliveryLayer[target] {
				pass.Reportf(imp.Pos(), "math-layer package %s must not import delivery-layer package %s; move the shared code down or invert the dependency", self, target)
			}
			if self == "chunkstore" && deliveryLayer[target] {
				pass.Reportf(imp.Pos(), "chunkstore is the storage leaf under the delivery layer and must not import %s; the delivery layers persist through chunkstore, never the reverse", target)
			}
			if target == "core" && !coreImporters[self] {
				pass.Reportf(imp.Pos(), "core is leaf-only: only coupled, experiments, remote, and relay may import it, not %s", self)
			}
			if realStack[self] && simulator[target] {
				pass.Reportf(imp.Pos(), "%s is part of the real stack and must not import the simulator package %s", self, target)
			}
		}
	}
}
