// Package experiments reproduces every table and figure of the paper's
// evaluation (§III). Each RunXxx function states the corresponding workload
// as one or more brisa.Scenario values, executes them through the
// declarative runner (brisa.Run on SimRuntime), and folds the Reports
// into a result that renders the same rows/series the paper reports.
//
// Every experiment accepts a Scale in (0,1]: 1 reproduces the paper's
// dimensions (512 nodes, 500 messages, …); smaller values shrink the
// workload proportionally so the benchmark suite stays fast. Shapes are
// stable under scaling; `go run ./cmd/brisa-figures <name>` runs one at full
// scale.
package experiments

import (
	"context"
	brisa "repro"
)

// Scale shrinks an experiment: nodes and messages are multiplied by it.
type Scale float64

// apply scales a paper dimension, keeping a sane floor.
func (s Scale) apply(full int, floor int) int {
	if s <= 0 || s > 1 {
		s = 1
	}
	v := int(float64(full) * float64(s))
	if v < floor {
		v = floor
	}
	return v
}

// Stream identifies the single stream of the paper's own evaluation grid;
// multi-stream scenarios name further streams explicitly.
const Stream brisa.StreamID = 1

// MessageInterval is the paper's injection rate: 5 messages per second.
const MessageInterval = brisa.DefaultInterval

// Result shapes shared with the public report package, so experiment
// results compose directly from scenario Reports.
type (
	// Series is one named CDF line of a figure.
	Series = brisa.Series
	// FigureResult is a CDF-style figure: several named series.
	FigureResult = brisa.Figure
)

// TableResult is a table-style result.
type TableResult struct {
	Name  string
	Table *brisa.Table
	Notes string
}

// String renders the table.
func (r TableResult) String() string {
	out := "== " + r.Name + " ==\n"
	if r.Notes != "" {
		out += r.Notes + "\n"
	}
	return out + r.Table.String()
}

// mustRun executes a scenario the harness itself composed; a validation
// error here is a programming bug in the experiment, not an operator input,
// so it panics instead of threading errors through every RunXxx signature.
func mustRun(sc brisa.Scenario) *brisa.Report {
	rep, err := brisa.Run(context.Background(), brisa.SimRuntime{}, sc)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return rep
}

// mustCluster builds (but does not run) a scenario's cluster, for the rare
// experiment that samples the raw network instead of disseminating.
func mustCluster(sc brisa.Scenario) *brisa.Cluster {
	c, err := sc.NewCluster()
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return c
}

// dagParents returns the parent target for configurations that sweep over
// modes: only ModeDAG takes an explicit parent count (the validated public
// Config rejects it elsewhere).
func dagParents(mode brisa.Mode, parents int) int {
	if mode == brisa.ModeDAG {
		return parents
	}
	return 0
}
