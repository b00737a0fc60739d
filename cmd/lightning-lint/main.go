// Command lightning-lint runs Lightning's project-specific static-analysis
// suite: the seven analyzers that enforce the race-safety, quantization,
// concurrency-lifecycle, wire-hygiene and suppression-hygiene invariants the
// compiler and go vet cannot see (run with -help for the list, or see
// DESIGN.md §8 and §14 for what each analyzer guards, its annotation escape
// hatch, and the ledger of what each has caught).
//
// Usage:
//
//	go run ./cmd/lightning-lint ./...
//	go run ./cmd/lightning-lint -json ./... > lint-report.json
//
// Diagnostics print one per line as "file:line: analyzer: message" — or,
// with -json, as a single JSON report ({"diagnostics": [...], "packages":
// N}) suitable for uploading as a CI artifact. Either way the process exits
// nonzero when any analyzer fires, so CI can gate on it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/lightning-smartnic/lightning/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit a JSON report on stdout instead of file:line text")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: lightning-lint [-json] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Analyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	os.Exit(run(flag.Args(), *jsonOut))
}

// jsonDiagnostic is one finding in the -json report, flattened to the
// fields a CI artifact consumer wants.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the -json output: every diagnostic plus enough context to
// read an empty report as "N packages checked, nothing found" rather than
// "nothing ran".
type jsonReport struct {
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
	Packages    int              `json:"packages"`
	Analyzers   []string         `json:"analyzers"`
}

func run(patterns []string, jsonOut bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	diags := lint.Run(pkgs, lint.Analyzers())
	cwd, _ := os.Getwd()
	relName := func(name string) string {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, name); err == nil {
				return rel
			}
		}
		return name
	}
	if jsonOut {
		report := jsonReport{Diagnostics: []jsonDiagnostic{}, Packages: len(pkgs)}
		for _, a := range lint.Analyzers() {
			report.Analyzers = append(report.Analyzers, a.Name)
		}
		for _, d := range diags {
			report.Diagnostics = append(report.Diagnostics, jsonDiagnostic{
				File:     relName(d.Pos.Filename),
				Line:     d.Pos.Line,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			d.Pos.Filename = relName(d.Pos.Filename)
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "lightning-lint: %d issue(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
