// Command bench is the repository's benchmark: four closed-loop
// workloads over real loopback TCP that drive the remote / relay /
// chunkstore / kvstore / pubsub stack through its public API and report
// model update latency (producer Publish → consumer weights-ready) end
// to end and layer by layer. See README.md in this directory for the
// metric and workload definitions.
//
//	go run ./bench                      every workload, 3 rounds + a traced pass
//	go run ./bench -repeat              the whole benchmark twice, compared against BENCHMARK.json's bounds
//	go run ./bench -workload W -trace 0 one run, end-to-end metrics as one JSON line
//	go run ./bench -workload W -trace 1 one run, per-layer metrics as one JSON line
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// outDir is where the span files and result.json go, relative to the
// repository root the benchmark is run from.
var outDir = filepath.Join("bench", "out")

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	dir      string
	repeat   bool
	quick    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print its metrics as one JSON line (default: all, in rounds)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated model and its changes")
	flag.IntVar(&o.seconds, "seconds", 20, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "1: the traced run (per-layer metrics, span file); 0: the untraced run (end-to-end metrics)")
	flag.StringVar(&o.dir, "dir", "", "parent of the store directories (default: a temp dir on /dev/shm when it exists)")
	flag.BoolVar(&o.repeat, "repeat", false, "run the whole benchmark twice and fail if the two disagree beyond BENCHMARK.json's bounds")
	flag.BoolVar(&o.quick, "quick", false, "smoke scale: 1 MiB model, 5 ops, 1 round")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.trace != 0 && o.trace != 1 || o.seconds < 1 {
		return errors.New("-trace takes 0 or 1, -seconds at least 1")
	}
	dir, err := storeParent(o.dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if o.workload != "" {
		sp, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		cfg := runConfig{sp: sp, sc: fullScale, seed: o.seed, seconds: o.seconds, dir: dir, outDir: outDir}
		if o.quick {
			cfg.sc = quickScale
		}
		runOne := runUntraced
		if o.trace == 1 {
			runOne = runTraced
		}
		res, err := runOne(cfg)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	}
	if o.repeat {
		return runRepeat(o, dir)
	}
	rep, err := runAll(o, dir)
	if err != nil {
		return err
	}
	rep.print(os.Stdout)
	return rep.write(filepath.Join(outDir, "result.json"))
}

// storeParent makes the run's own directory for store directories:
// under dir when given, else on /dev/shm when it exists (tmpfs keeps a
// shared disk's fsync jitter out of the numbers), else the system temp
// directory.
func storeParent(dir string) (string, error) {
	if dir == "" {
		dir = os.TempDir()
		if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
			dir = "/dev/shm"
		}
	}
	return os.MkdirTemp(dir, "viper-bench-")
}
