// Command viper-vet runs the project's static-analysis suite
// (internal/analysis) over the given package patterns. It is the first
// gate in ci.sh.
//
// Usage:
//
//	viper-vet [patterns...]
//
// Patterns default to ./... and accept plain directories or Go-style
// "dir/..." wildcards, resolved within the enclosing module. Findings
// print as "file:line: [analyzer] message"; -h prints the analyzer
// catalog. Individual lines can be waived with a reviewed suppression
// comment:
//
//	//lint:ignore analyzer reason
//
// The exit code is 0 when nothing is found, 1 on any finding, and 2 on a
// usage or load error (a pattern that matches no package included).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"viper/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind an exit code, testable in-process. Module
// discovery and pattern resolution start from the process working
// directory.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("viper-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: viper-vet [patterns...]\n\nanalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(stderr, "  %-15s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader(".")
	var pkgs []*analysis.Package
	if err == nil {
		pkgs, err = loader.Load(patterns...)
	}
	if err != nil {
		fmt.Fprintf(stderr, "viper-vet: %v\n", err)
		return 2
	}

	diags := analysis.Run(pkgs, analysis.All())
	cwd, _ := os.Getwd()
	for _, d := range diags {
		if rel, err := filepath.Rel(cwd, d.Pos.Filename); cwd != "" && err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "viper-vet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
