// Package lint holds the one configuration table for the determinism lint
// suite: which packages must be worker-count invariant, which sinks make a
// map iteration order-insensitive, which wall-clock and global-randomness
// symbols are forbidden there, and the //brisa:orderinvariant annotation
// convention. The analyzers under internal/lint/* consult this table and
// nothing else, so extending the contract (e.g. when the async conservative
// scheduler adds new deterministic packages) is a one-table change.
package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// DeterministicPackages lists the packages whose code must produce
// byte-identical simulator output for every worker count (the PR 5
// equivalence contract). Entries are import-path suffixes: a package
// matches if its import path equals an entry or ends in "/"+entry, so the
// same table covers both the real module ("repro/internal/core") and the
// analysistest fixtures ("internal/core").
//
// internal/livenet is deliberately absent: the live runtime runs on wall
// clocks and OS scheduling by design.
var DeterministicPackages = []string{
	"internal/core",
	"internal/simnet",
	"internal/hyparview",
	"internal/cyclon",
	"internal/stats",
	"internal/baselines/kit",
	"internal/baselines/simpletree",
	"internal/baselines/simplegossip",
	"internal/baselines/tag",
}

// IsDeterministic reports whether the package at path is bound by the
// determinism contract.
func IsDeterministic(path string) bool {
	for _, entry := range DeterministicPackages {
		if pathMatches(path, entry) {
			return true
		}
	}
	return false
}

func pathMatches(path, entry string) bool {
	return path == entry || strings.HasSuffix(path, "/"+entry)
}

// FuncRef names one package-level function; Pkg is matched like
// DeterministicPackages entries (exact import path or "/"+suffix).
type FuncRef struct {
	Pkg  string
	Name string
}

// Sorters are the functions maporder accepts as order-restoring sinks for
// the append-then-sort idiom: a loop that only appends map keys/values to a
// local slice is order-insensitive if the slice is subsequently passed to
// one of these before use.
var Sorters = []FuncRef{
	{"slices", "Sort"},
	{"slices", "SortFunc"},
	{"slices", "SortStableFunc"},
	{"sort", "Slice"},
	{"sort", "SliceStable"},
	{"sort", "Sort"},
	{"sort", "Stable"},
	{"sort", "Strings"},
	{"sort", "Ints"},
	{"internal/ids", "Sort"},
}

// IsSorter reports whether pkgPath.name is a recognized sorting function.
func IsSorter(pkgPath, name string) bool {
	for _, s := range Sorters {
		if s.Name == name && pathMatches(pkgPath, s.Pkg) {
			return true
		}
	}
	return false
}

// WallClockFuncs are the package-level "time" functions that read or react
// to the wall clock. Deterministic code must take time from the simnet
// virtual clock (core.Protocol.Now / simnet env) instead. time.Duration
// arithmetic and time constants remain fine.
var WallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"Sleep":     true,
}

// RandConstructors are the math/rand (and math/rand/v2) package-level
// functions globalrand permits in deterministic packages: constructing a
// locally-owned generator from an explicit source is exactly how the seeded
// per-node/splitmix streams are built. Every other package-level rand
// function draws from the shared global generator, whose state depends on
// cross-goroutine call order.
var RandConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// RandPackages are the import paths globalrand watches.
var RandPackages = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// OrderInvariantAnnotation is the suppression directive for maporder and
// unseededmap. It must carry a non-empty justification:
//
//	//brisa:orderinvariant bit sets commute, ordering cannot leak out
//	for seq := range w.far { ... }
//
// The directive is attached to the range statement on the line immediately
// above it (or trailing on the same line). An annotation without a reason
// is itself a finding — the justification is the reviewable artifact.
const OrderInvariantAnnotation = "//brisa:orderinvariant"

// Annotation is one parsed //brisa:orderinvariant directive.
type Annotation struct {
	Line   int
	Reason string
}

// OrderAnnotations scans a file's comments for //brisa:orderinvariant
// directives and returns them keyed by source line.
func OrderAnnotations(fset *token.FileSet, file *ast.File) map[int]Annotation {
	var anns map[int]Annotation
	for _, group := range file.Comments {
		for _, c := range group.List {
			rest, ok := strings.CutPrefix(c.Text, OrderInvariantAnnotation)
			if !ok {
				continue
			}
			// Reject e.g. //brisa:orderinvariantfoo.
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue
			}
			if anns == nil {
				anns = make(map[int]Annotation)
			}
			line := fset.Position(c.Pos()).Line
			anns[line] = Annotation{Line: line, Reason: strings.TrimSpace(rest)}
		}
	}
	return anns
}

// AnnotationFor returns the annotation attached to a statement at pos:
// trailing on the same line or on the line immediately above.
func AnnotationFor(anns map[int]Annotation, fset *token.FileSet, pos token.Pos) (Annotation, bool) {
	if len(anns) == 0 {
		return Annotation{}, false
	}
	line := fset.Position(pos).Line
	if a, ok := anns[line]; ok {
		return a, true
	}
	if a, ok := anns[line-1]; ok {
		return a, true
	}
	return Annotation{}, false
}
