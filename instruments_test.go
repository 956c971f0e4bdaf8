package viper

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"viper/internal/chunkstore"
	"viper/internal/kvstore"
	"viper/internal/metrics"
	"viper/internal/pubsub"
	"viper/internal/relay"
	"viper/internal/remote"
	"viper/internal/transport"
)

var updateInstruments = flag.Bool("update-instruments", false, "rewrite testdata/instruments.golden from the registries")

// TestInstrumentNamesAreGolden pins the name and kind of every instrument
// the delivery packages register at start-up: dashboards, viper-top panels
// and the benchmark read them by name, so a rename is a reviewed diff to
// the golden list, never a side effect.
func TestInstrumentNamesAreGolden(t *testing.T) {
	var got strings.Builder
	for _, reg := range []*metrics.Registry{
		chunkstore.Metrics(), kvstore.Metrics(), pubsub.Metrics(),
		relay.Metrics(), remote.Metrics(), transport.Metrics(),
	} {
		for _, p := range reg.Snapshot().Points {
			fmt.Fprintf(&got, "%s %s %s\n", reg.Name(), p.Kind, p.Name)
		}
	}
	const path = "testdata/instruments.golden"
	raw, err := os.ReadFile(path)
	if err != nil && !*updateInstruments {
		t.Fatal(err)
	}
	var header, want strings.Builder // the file's # lines say what changed, and why
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if strings.HasPrefix(line, "#") {
			header.WriteString(line)
		} else {
			want.WriteString(line)
		}
	}
	if *updateInstruments {
		if err := os.WriteFile(path, []byte(header.String()+got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got.String() != want.String() {
		t.Fatalf("registered instruments differ from %s\n--- got\n%s--- want\n%s", path, got.String(), want.String())
	}
}
