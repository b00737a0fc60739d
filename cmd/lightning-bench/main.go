// Command lightning-bench regenerates the paper's tables and figures, and
// the design-choice ablations, from this reproduction's substrates. Run with
// -exp all (default) for the full evaluation, or pick one experiment; -list
// prints every id -exp accepts. Performance is measured by the canonical
// benchmark (bash benchmark/run.sh), not here.
//
//	lightning-bench -exp fig21
//	lightning-bench -exp ablation-preamble
//	lightning-bench -list
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/lightning-smartnic/lightning/internal/exp"
)

func main() {
	id := flag.String("exp", "all", "experiment id (see -list)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, e := range exp.IDs() {
			fmt.Println(e)
		}
		return
	}

	var err error
	if *id == "all" {
		err = exp.All(os.Stdout)
	} else {
		err = exp.Run(*id, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lightning-bench:", err)
		os.Exit(1)
	}
}
