// Package exp implements the paper's experiments: one function per table
// and figure of the evaluation, each regenerating the corresponding rows or
// series from this reproduction's own substrates, plus the ablation-* runners
// that quantify the design choices DESIGN.md §5 lists. Every runner is
// deterministic: fixed trial counts and fixed seeds. The lightning-bench
// binary drives them; EXPERIMENTS.md records the outputs against the paper's
// numbers.
package exp

import (
	"fmt"
	"io"
	"sort"
)

// Registry maps experiment IDs (fig4, table2, ...) to runners.
var Registry = map[string]func(w io.Writer) error{}

// heavy holds the IDs All skips: compute-heavy runs that execute only when
// named.
var heavy = map[string]bool{}

func register(id string, fn func(w io.Writer) error) {
	Registry[id] = fn
}

func registerHeavy(id string, fn func(w io.Writer) error) {
	register(id, fn)
	heavy[id] = true
}

// IDs returns every registered experiment ID, sorted: what Run accepts.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string, w io.Writer) error {
	fn, ok := Registry[id]
	if !ok {
		return fmt.Errorf("exp: unknown experiment %q (have %v)", id, IDs())
	}
	return fn(w)
}

// All executes every experiment in ID order, except the heavy ones.
func All(w io.Writer) error {
	for _, id := range IDs() {
		if heavy[id] {
			continue
		}
		if err := Run(id, w); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
