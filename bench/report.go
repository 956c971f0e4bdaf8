package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
)

// rounds is how many untraced runs of each workload one benchmark makes;
// rounds are interleaved across workloads (w1 w2 w3 w4, w1 …) and each is
// a fresh child process, so pools, GC state and peak RSS are per run. A
// reported value is the median over rounds.
const rounds = 3

// mustBeZero are the per-layer counts a healthy run leaves at zero.
var mustBeZero = []string{
	"proc.failed_ops_share", "proc.goroutines_leaked", "proc.trace_negative_self_spans",
	"remote.staged_load_share", "remote.skipped_version_share",
	"relay.store_errors", "relay.corrupt_chunks", "relay.abandoned_fanouts",
	"transport.tcp_corrupt_frames",
}

// environment is recorded beside the numbers.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	StoreFS    string `json:"store_filesystem"`
	Network    string `json:"network"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"run_seconds"`
	Quick      bool   `json:"quick,omitempty"`
	Note       string `json:"note"`
}

// series is one end-to-end metric of one workload across rounds.
type series struct {
	Unit   string    `json:"unit"`
	N      []int     `json:"n"` // samples behind each round's value
	Rounds []float64 `json:"rounds"`
	Median float64   `json:"median"`
}

type workloadReport struct {
	Name      string            `json:"name"`
	Why       string            `json:"why"`
	Attempted []int             `json:"attempted"`
	Failed    []int             `json:"failed"`
	EndToEnd  map[string]series `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
}

type report struct {
	Env       environment      `json:"environment"`
	Workloads []workloadReport `json:"workloads"`
}

// child runs one single-workload run in a fresh process (this binary)
// and parses the result line it prints last.
func child(o options, dir, workload string, trace int) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace), "-dir", dir}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s (trace %d): result line: %w", workload, trace, err)
	}
	return res, nil
}

// runAll is the whole benchmark: rounds × workloads untraced runs, then
// one traced run per workload (skipping the untraced ones with -trace 1).
func runAll(o options, dir string) (*report, error) {
	n := rounds
	if o.quick {
		n = 1
	}
	rep := &report{Env: describe(o, dir)}
	for _, w := range workloads {
		rep.Workloads = append(rep.Workloads, workloadReport{Name: w.name, Why: w.why, EndToEnd: map[string]series{}})
	}
	for r := 0; r < n && o.trace == 0; r++ {
		for i, w := range workloads {
			fmt.Fprintf(os.Stderr, "bench: round %d/%d %s\n", r+1, n, w.name)
			res, err := child(o, dir, w.name, 0)
			if err != nil {
				return nil, err
			}
			wr := &rep.Workloads[i]
			wr.Attempted = append(wr.Attempted, res.Attempted)
			wr.Failed = append(wr.Failed, res.Failed)
			for name, m := range res.Metrics {
				s := wr.EndToEnd[name]
				s.Unit = m.Unit
				s.N = append(s.N, sampleCount(name, w, res.Attempted, o.quick))
				s.Rounds = append(s.Rounds, m.Value)
				s.Median = median(s.Rounds)
				wr.EndToEnd[name] = s
			}
		}
	}
	for i, w := range workloads {
		fmt.Fprintf(os.Stderr, "bench: traced %s\n", w.name)
		res, err := child(o, dir, w.name, 1)
		if err != nil {
			return nil, err
		}
		rep.Workloads[i].PerLayer = res.Metrics
	}
	return rep, nil
}

// sampleCount is how many samples stand behind one round's value of an
// end-to-end metric: the set-ups for setup_s, the seeding publishes for
// cold-join stalls, otherwise the ops attempted.
func sampleCount(name string, w spec, attempted int, quick bool) int {
	sc := fullScale
	if quick {
		sc = quickScale
	}
	switch {
	case name == "setup_s":
		return sc.setups
	case name == "stall_ms_p50" && w.coldJoin:
		return sc.setups * sc.seedVers
	}
	return attempted
}

func describe(o options, dir string) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitCommit: "unknown", StoreFS: fsType(dir), Network: "loopback TCP",
		Seed: o.seed, Seconds: o.seconds, Quick: o.quick,
		Note: "sandbox numbers: one process, servers in-process on 127.0.0.1",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	if env.StoreFS == "tmpfs" {
		env.Note += "; store on tmpfs, fsync ≈ free"
	}
	return env
}

// fsType names the filesystem dir lives on.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// print writes every metric by name with its unit, sample count,
// per-round values and median.
func (rep *report) print(w io.Writer) {
	e := rep.Env
	fmt.Fprintf(w, "environment: nproc %d, GOMAXPROCS %d, %s, commit %s, store on %s, %s, seed %d\n  %s\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.GitCommit, e.StoreFS, e.Network, e.Seed, e.Note)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, wr := range rep.Workloads {
		if len(wr.EndToEnd) == 0 {
			continue
		}
		fmt.Fprintf(tw, "\n%s\t(attempted %v, failed %v)\n", wr.Name, wr.Attempted, wr.Failed)
		fmt.Fprintf(tw, "  metric\tunit\tn\trounds\tmedian\n")
		for _, name := range sortedKeys(wr.EndToEnd) {
			s := wr.EndToEnd[name]
			fmt.Fprintf(tw, "  %s\t%s\t%v\t%s\t%s\n", name, s.Unit, s.N, formatAll(s.Rounds), format(s.Median))
		}
	}
	tw.Flush()
	fmt.Fprintf(tw, "\nper-layer (traced run)\tunit")
	for _, wr := range rep.Workloads {
		fmt.Fprintf(tw, "\t%s", wr.Name)
	}
	fmt.Fprintln(tw)
	for _, name := range sortedKeys(rep.Workloads[0].PerLayer) {
		fmt.Fprintf(tw, "  %s\t%s", name, rep.Workloads[0].PerLayer[name].Unit)
		for _, wr := range rep.Workloads {
			fmt.Fprintf(tw, "\t%s", format(wr.PerLayer[name].Value))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

func (rep *report) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func format(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }

func formatAll(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = format(v)
	}
	return strings.Join(parts, " ")
}

// bound is one end-to-end metric's regression bound from BENCHMARK.json.
type bound struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readBounds(path string) ([]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.EndToEnd, nil
}

// floor is the absolute difference below which a timing never counts as
// changed: 1 ms, and 0.1 s for set-up.
func floor(unit string) float64 {
	switch unit {
	case "ms":
		return 1
	case "s":
		return 0.1
	}
	return 0
}

// runRepeat runs the whole benchmark twice back to back, prints both
// sets side by side, and fails if any end-to-end median differs by more
// than its bound or any must-be-zero count is not zero.
func runRepeat(o options, dir string) error {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	var sets [2]*report
	for i := range sets {
		fmt.Fprintf(os.Stderr, "bench: set %d/2\n", i+1)
		if sets[i], err = runAll(o, dir); err != nil {
			return err
		}
	}
	if err := sets[1].write(filepath.Join(outDir, "result.json")); err != nil {
		return err
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tset 1\tset 2\tdiff\tbound\t\n")
	var bad []string
	for i, wr := range sets[0].Workloads {
		for _, b := range bounds {
			a, c := wr.EndToEnd[b.Name].Median, sets[1].Workloads[i].EndToEnd[b.Name].Median
			diff := math.Abs(c-a) / a
			verdict := ""
			if diff > b.Bound && math.Abs(c-a) > floor(b.Unit) {
				verdict = "DISAGREE"
				bad = append(bad, wr.Name+" "+b.Name)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.1f%%\t%.0f%%\t%s\n", wr.Name, b.Name, b.Unit, format(a), format(c), 100*diff, 100*b.Bound, verdict)
		}
	}
	tw.Flush()
	for _, set := range sets {
		for _, wr := range set.Workloads {
			if sum(wr.Failed) > 0 {
				bad = append(bad, fmt.Sprintf("%s failed ops %v", wr.Name, wr.Failed))
			}
			for _, name := range mustBeZero {
				if v := wr.PerLayer[name].Value; v != 0 {
					bad = append(bad, fmt.Sprintf("%s %s = %s", wr.Name, name, format(v)))
				}
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("the two sets disagree or a must-be-zero count is not zero: %s", strings.Join(bad, "; "))
	}
	fmt.Fprintln(out, "both sets agree within BENCHMARK.json's bounds; every must-be-zero count is zero")
	return nil
}

func sum(vals []int) int {
	n := 0
	for _, v := range vals {
		n += v
	}
	return n
}
