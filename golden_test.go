package brisa_test

// Golden determinism tests: a table of scenarios exercising every engine
// subsystem, each with its Report JSON — minus wall-clock and toolchain
// metadata — committed as a golden file. The engine is a pure function of
// (seed, workload), so each report must come back byte-identical run after
// run, and across engine refactors. The same table feeds the
// sequential-vs-sharded equivalence harness (equivalence_test.go), which
// re-runs every case on 2 and 8 scheduler shards and requires the identical
// bytes — goldens are pinned on the sequential engine and cross-checked on
// the sharded one.
//
// Regenerate (only when a deliberate behaviour change shifts the metrics)
// with:
//
//	go test -run TestGoldenReport -update-golden .

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	brisa "repro"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden reports from the current engine")

// goldenCase is one pinned scenario.
type goldenCase struct {
	name string // sub-test name
	file string // golden file under testdata/
	sc   brisa.Scenario
}

// goldenCases returns the pinned scenario table:
//
//   - tree: the original mid-size single-stream run — event scheduler
//     (timers, churn removals), bandwidth accounting (traffic probe),
//     delivered-seq tracking (latency/duplicates), repair paths.
//   - multistream: four concurrent streams from four distinct sources, with
//     the structure probe — cross-stream scheduling and per-stream
//     reporting.
//   - churn: sustained heavier churn with the repairs probe — orphan
//     accounting, soft/hard repair split, recovery delays.
//   - blob: a chunked large-payload workload (K-of-N erasure coded)
//     alongside a message stream — chunk relay over the emerged tree,
//     Have/Want pull repair, reconstruction accounting.
//   - lossy: the full fault pack — message loss, duplication, reorder, an
//     asymmetric mid-run partition, and bounded inbound buffers — pinning
//     the fault-injection hash streams and the Faults report section.
func goldenCases() []goldenCase {
	return []goldenCase{
		{
			name: "tree",
			file: "testdata/golden_report.json",
			sc: brisa.Scenario{
				Name: "golden-tree-1x64",
				Seed: 7,
				Topology: brisa.Topology{
					Nodes: 64,
					Peer:  brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
				},
				Workloads: []brisa.Workload{
					{Stream: 1, Messages: 30, Payload: 512},
				},
				Churn: &brisa.Churn{
					Script: "from 0s to 4s const churn 5% each 2s",
					Start:  2 * time.Second,
				},
				Probes: []brisa.Probe{
					brisa.ProbeLatency, brisa.ProbeDuplicates,
					brisa.ProbeConstruction, brisa.ProbeTraffic, brisa.ProbeRepairs,
				},
				Drain: 8 * time.Second,
			},
		},
		{
			name: "multistream",
			file: "testdata/golden_report_multistream.json",
			sc: brisa.Scenario{
				Name: "golden-multistream-4x48",
				Seed: 11,
				Topology: brisa.Topology{
					Nodes: 48,
					Peer:  brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
				},
				Workloads: []brisa.Workload{
					{Stream: 1, Source: 0, Messages: 12, Payload: 128},
					{Stream: 2, Source: 1, Messages: 12, Payload: 256},
					{Stream: 3, Source: 2, Messages: 12, Payload: 64, Start: 400 * time.Millisecond},
					{Stream: 4, Source: 3, Messages: 12, Payload: 512, Interval: 300 * time.Millisecond},
				},
				Probes: []brisa.Probe{
					brisa.ProbeLatency, brisa.ProbeDuplicates, brisa.ProbeStructure,
				},
				Drain: 6 * time.Second,
			},
		},
		{
			name: "churn",
			file: "testdata/golden_report_churn.json",
			sc: brisa.Scenario{
				Name: "golden-churn-1x64",
				Seed: 13,
				Topology: brisa.Topology{
					Nodes: 64,
					Peer:  brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
				},
				Workloads: []brisa.Workload{
					{Stream: 1, Messages: 40, Payload: 256},
				},
				Churn: &brisa.Churn{
					Script: "from 0s to 6s const churn 8% each 2s",
					Start:  1 * time.Second,
				},
				Probes: []brisa.Probe{
					brisa.ProbeLatency, brisa.ProbeDuplicates,
					brisa.ProbeTraffic, brisa.ProbeRepairs,
				},
				Drain: 8 * time.Second,
			},
		},
		{
			name: "blob",
			file: "testdata/golden_report_blob.json",
			sc: brisa.Scenario{
				Name: "golden-blob-1x48",
				Seed: 17,
				Topology: brisa.Topology{
					Nodes: 48,
					Peer:  brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
				},
				Workloads: []brisa.Workload{
					{Stream: 1, Source: 0, Messages: 10, Payload: 256},
				},
				BlobWorkloads: []brisa.BlobWorkload{
					// 96 KiB in 12 data chunks of 8 KiB plus 4 parity: any
					// 12 of 16 reconstruct.
					{Stream: 2, Source: 1, Blobs: 2, Size: 96 << 10, ChunkSize: 8 << 10, Total: 16},
				},
				Probes: []brisa.Probe{
					brisa.ProbeLatency, brisa.ProbeDuplicates, brisa.ProbeTraffic,
				},
				Drain: 8 * time.Second,
			},
		},
		{
			name: "lossy",
			file: "testdata/golden_report_lossy.json",
			sc: brisa.Scenario{
				Name: "golden-lossy-1x64",
				Seed: 19,
				Topology: brisa.Topology{
					Nodes: 64,
					Peer:  brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
				},
				Workloads: []brisa.Workload{
					{Stream: 1, Messages: 30, Payload: 256},
				},
				Faults: &brisa.FaultModel{
					Loss:      0.05,
					Duplicate: 0.03,
					Reorder:   0.10,
					Partitions: []brisa.Partition{
						{Start: 1 * time.Second, End: 2 * time.Second, Fraction: 0.25, Asymmetric: true},
					},
					Buffer: &brisa.BufferModel{Capacity: 4, Policy: brisa.BufferDropOldest, Service: 2 * time.Millisecond},
				},
				Probes: []brisa.Probe{
					brisa.ProbeLatency, brisa.ProbeDuplicates,
					brisa.ProbeTraffic, brisa.ProbeRepairs,
				},
				Drain: 10 * time.Second,
			},
		},
	}
}

// normalizeReport strips the fields that legitimately vary between runs
// (wall-clock, toolchain) and re-marshals with sorted keys.
func normalizeReport(t *testing.T, rep *brisa.Report) []byte {
	t.Helper()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal report: %v", err)
	}
	delete(m, "wall_ms")
	delete(m, "go_version")
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatalf("re-marshal report: %v", err)
	}
	return append(out, '\n')
}

// runGolden executes one golden case on the given worker count and returns
// the normalized report bytes.
func runGolden(t *testing.T, sc brisa.Scenario, workers int) []byte {
	t.Helper()
	rep, err := brisa.Run(nil, brisa.SimRuntime{Workers: workers}, sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return normalizeReport(t, rep)
}

func TestGoldenReport(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			first := runGolden(t, gc.sc, 1)
			second := runGolden(t, gc.sc, 1)
			if !bytes.Equal(first, second) {
				t.Fatalf("two same-seed runs produced different reports:\nrun1:\n%s\nrun2:\n%s", first, second)
			}

			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(gc.file), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(gc.file, first, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", gc.file, len(first))
				return
			}

			want, err := os.ReadFile(gc.file)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update-golden): %v", err)
			}
			if !bytes.Equal(first, want) {
				t.Fatalf("report diverged from golden file %s\ngot:\n%s\nwant:\n%s", gc.file, first, want)
			}
		})
	}
}

// TestZeroProcessingDelayChangesNothing pins the node-stream seeding rule at
// the Report level: every node stream starts at a hash of (seed, node,
// purpose), so giving each node a second stream — what setting
// ProcessingDelay does — leaves every protocol stream, and with a zero delay
// the whole run, where it was.
func TestZeroProcessingDelayChangesNothing(t *testing.T) {
	sc := goldenCases()[0].sc
	want := runGolden(t, sc, 1)
	sc.Topology.ProcessingDelay = func(*rand.Rand) time.Duration { return 0 }
	if got := runGolden(t, sc, 1); !bytes.Equal(got, want) {
		t.Fatalf("a zero ProcessingDelay changed the 64-node report:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
