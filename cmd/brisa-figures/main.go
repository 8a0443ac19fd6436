// Command brisa-figures regenerates the paper's tables and figures. Every
// experiment is stated as one or more declarative brisa.Scenario values and
// executed through the scenario runner (brisa.Run on SimRuntime); this
// command only selects, scales and prints them.
//
// Usage:
//
//	brisa-figures [-scale 1.0] [-seed 42] [-list] [experiment ...]
//
// With no arguments, every experiment runs in sequence at the given scale.
// Scale 1.0 reproduces the paper's dimensions (512 nodes, 500 messages,
// 10-minute churn windows); smaller scales shrink the workloads
// proportionally for quick looks. Output is printed as aligned text blocks:
// CDF series for the figures, rows for the tables, and Graphviz DOT for
// Figure 8.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/experiments"
)

func main() {
	scale := flag.Float64("scale", 1.0, "experiment scale in (0,1]; 1.0 = paper dimensions")
	seed := flag.Int64("seed", 42, "simulation seed")
	list := flag.Bool("list", false, "list experiment names and exit")
	flag.Parse()

	if *list {
		for _, name := range experiments.Names() {
			fmt.Println(name)
		}
		return
	}

	names := flag.Args()
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		names = experiments.Names()
	}
	reg := experiments.Registry()
	for _, name := range names {
		run, ok := reg[strings.ToLower(name)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", name)
			os.Exit(2)
		}
		start := time.Now()
		result := run(experiments.Scale(*scale), *seed)
		fmt.Println(result.String())
		fmt.Printf("(%s took %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}
