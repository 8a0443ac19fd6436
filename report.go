package brisa

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/stats"
)

// Statistics shapes re-exported so Report consumers never import internal
// packages.
type (
	// Dist is a distribution of float64 observations with percentile,
	// summary and CDF accessors.
	Dist = stats.Sample
	// IntDist is an integer histogram with an exact-value CDF (the depth
	// and degree figures).
	IntDist = stats.IntHistogram
	// CDFPoint is one point of a cumulative distribution.
	CDFPoint = stats.CDFPoint
	// Summary is the five-number summary (p5/p25/p50/p75/p90).
	Summary = stats.Summary
	// Table renders aligned rows.
	Table = stats.Table
)

// FormatCDF renders a CDF series as aligned two-column text.
func FormatCDF(name string, points []CDFPoint) string {
	return stats.FormatCDF(name, points)
}

// Series is one named CDF line of a figure.
type Series struct {
	Name   string
	Points []CDFPoint
}

// Figure is a CDF-style result: several named series. Experiments compose
// one from the reports of several scenario runs.
type Figure struct {
	Name   string
	Notes  string
	Series []Series
}

// String renders all series as aligned text blocks.
func (f Figure) String() string {
	out := "== " + f.Name + " ==\n"
	if f.Notes != "" {
		out += f.Notes + "\n"
	}
	for _, s := range f.Series {
		out += FormatCDF(s.Name, s.Points)
	}
	return out
}

// StreamReport carries one workload's results. Fields gated by a probe are
// nil when the scenario did not collect it.
type StreamReport struct {
	// Stream is the workload's stream.
	Stream StreamID
	// Source is the resolved sourcing node.
	Source NodeID
	// Published is how many messages the source injected.
	Published int
	// Reliability is the fraction of surviving non-source nodes that
	// delivered every published message.
	Reliability float64
	// Connected is the fraction of surviving non-source nodes that
	// delivered at least one message and hold a live position in the
	// structure — the completeness notion under churn, where late joiners
	// cannot have the full history.
	Connected float64
	// Delays are all publish→delivery delays in seconds (ProbeLatency),
	// excluding the source's local deliveries and warmup sequences.
	Delays *Dist
	// NodeDelays are per-node mean delays in seconds (ProbeLatency) — the
	// per-node aggregation the paper's Figure 9 plots. The mean (rather
	// than a median) is what the O(1)-per-node streaming collector can
	// keep exact at 100k+ nodes.
	NodeDelays *Dist
	// Spread is the per-node span between first and last delivery in
	// seconds (ProbeLatency) — Table II's dissemination latency is its
	// mean.
	Spread *Dist
	// Duplicates are per-node duplicate receptions divided by Published
	// (ProbeDuplicates).
	Duplicates *Dist
	// Depths is the structural depth histogram (ProbeStructure): longest
	// path from the source, the Figure 6 definition.
	Depths *IntDist
	// Degrees is the out-degree histogram (ProbeStructure): outgoing
	// structure links per node, the Figure 7 definition.
	Degrees *IntDist
	// Parents is the raw emerged structure (ProbeStructure): each
	// non-source node's parent set.
	Parents map[NodeID][]NodeID
	// Construction are per-node structure construction times in seconds
	// (ProbeConstruction).
	Construction *Dist
}

// BlobStreamReport carries one blob workload's results (see BlobWorkload):
// how well chunked large payloads spread over the stream's emerged
// structure, and what they cost the broadcaster.
type BlobStreamReport struct {
	// Stream is the workload's stream.
	Stream StreamID
	// Source is the resolved sourcing node.
	Source NodeID
	// Published is how many blobs the source injected; BlobBytes their
	// total payload bytes.
	Published int
	BlobBytes int64
	// Reliability is the fraction of surviving non-source nodes that
	// reconstructed every published blob byte-identically (content hashes
	// verified against the source's).
	Reliability float64
	// Latency is the per-delivery reconstruction latency in seconds: first
	// chunk received → blob reconstructed, on the receiving node's clock.
	Latency *Dist
	// Throughput is the per-delivery goodput in MB/s: payload size over the
	// reconstruction window — the per-node dissemination rate.
	Throughput *Dist
	// UploadOverheadPct is the broadcaster's chunk bytes sent as a
	// percentage of published payload bytes; 100 means the source uploaded
	// each blob exactly once, parity and re-pushes included.
	UploadOverheadPct float64
	// PulledPct is the percentage of non-source chunk receptions satisfied
	// by Have/Want pull repair rather than structure push.
	PulledPct float64
}

// TrafficReport carries the simulated network's byte counters over the run
// (ProbeTraffic). Traffic is per node, aggregated across streams; workload
// sources are excluded from every per-node statistic, matching the paper's
// "average per node" convention (the previous harness included the source
// in the Figure 10/11 rate distributions — the percentile bars shift
// slightly).
type TrafficReport struct {
	// StabMB and DissMB are the average per-node megabytes sent during
	// the stabilization and dissemination phases.
	StabMB, DissMB float64
	// DownRate and UpRate are per-node KB/s over the dissemination
	// window.
	DownRate, UpRate *Dist
	// Elapsed is the dissemination window the rates are computed over.
	Elapsed time.Duration
}

// ChurnReport measures repair behaviour over the churn window
// (ProbeRepairs), aggregated across all nodes and streams.
type ChurnReport struct {
	// Window is the span the rates are normalized over.
	Window time.Duration
	// ParentsLostPerMin and OrphansPerMin are network-wide event rates.
	ParentsLostPerMin, OrphansPerMin float64
	// SoftPct and HardPct split the repairs (they sum to 100 when any
	// repair happened).
	SoftPct, HardPct float64
	// HardDelays are hard-repair recovery delays in seconds.
	HardDelays *Dist
}

// FaultsReport summarizes the deterministic fault injection of a run
// (Scenario.Faults): the configured intensities, echoed so persisted reports
// are self-describing, and the number of faults actually injected. Fault
// sweeps (experiments/faults.go) chain these into reliability/latency/
// overhead-vs-intensity curves, like the paper's churn figures.
type FaultsReport struct {
	// Loss, Duplicate and Reorder are the configured per-message
	// probabilities.
	Loss, Duplicate, Reorder float64
	// Partitions is the number of configured partition windows.
	Partitions int
	// BufferCapacity is the inbound-buffer bound (0 = unbounded), and
	// BufferPolicy its drop policy name.
	BufferCapacity int
	BufferPolicy   string
	// Injected counts the faults the run actually injected.
	Injected FaultStats
}

// Report is the outcome of one scenario run, with per-stream results and
// CDF/table renderers. The same shape comes back from every runtime.
type Report struct {
	// Name echoes the scenario.
	Name string
	// Runtime is "sim", "live" or "dist".
	Runtime string
	// Nodes is the initial network size; Alive counts survivors at the
	// end (they differ only under churn).
	Nodes, Alive int
	// Elapsed is the dissemination window: virtual time on the simulator,
	// wall time live.
	Elapsed time.Duration
	// Wall is the real time the run took on either runtime.
	Wall time.Duration
	// GoVersion is the toolchain that produced the report (stamped by Run)
	// — with Runtime, Nodes and Wall it makes persisted reports
	// self-describing across runtimes and machines.
	GoVersion string
	// Streams holds one report per workload, in workload order.
	Streams []*StreamReport
	// Blobs holds one report per blob workload, in workload order.
	Blobs []*BlobStreamReport
	// Traffic is set when the scenario probed traffic: simulated byte
	// counters on SimRuntime, real wire bytes from the livenet tap on
	// LiveRuntime.
	Traffic *TrafficReport
	// Churn is set when the scenario had churn and probed repairs.
	Churn *ChurnReport
	// Faults is set when the run injected faults (Scenario.Faults).
	Faults *FaultsReport
}

// Stream returns the report for a stream, or nil.
func (r *Report) Stream(id StreamID) *StreamReport {
	for _, s := range r.Streams {
		if s.Stream == id {
			return s
		}
	}
	return nil
}

// Blob returns the report for a blob workload's stream, or nil.
func (r *Report) Blob(id StreamID) *BlobStreamReport {
	for _, s := range r.Blobs {
		if s.Stream == id {
			return s
		}
	}
	return nil
}

// Figure renders one probe across all streams as a CDF figure: one series
// per stream that collected it. points bounds the series resolution.
func (r *Report) Figure(p Probe, points int) Figure {
	f := Figure{Name: fmt.Sprintf("%s — %s", r.Name, p)}
	for _, s := range r.Streams {
		var pts []CDFPoint
		switch p {
		case ProbeLatency:
			if s.Delays != nil {
				pts = s.Delays.CDF(points)
			}
		case ProbeDuplicates:
			if s.Duplicates != nil {
				pts = s.Duplicates.CDF(points)
			}
		case ProbeConstruction:
			if s.Construction != nil {
				pts = s.Construction.CDF(points)
			}
		case ProbeStructure:
			if s.Depths != nil {
				pts = s.Depths.CDF()
			}
		}
		if pts != nil {
			f.Series = append(f.Series, Series{Name: fmt.Sprintf("stream %d", s.Stream), Points: pts})
		}
	}
	return f
}

// Table renders the per-stream results as aligned rows.
func (r *Report) Table() *Table {
	t := &Table{Header: []string{
		"stream", "source", "published", "reliability", "connected", "median delay", "spread",
	}}
	for _, s := range r.Streams {
		delay, spread := "-", "-"
		if s.Delays != nil && s.Delays.Len() > 0 {
			delay = fmt.Sprintf("%.1fms", s.Delays.Median()*1000)
		}
		if s.Spread != nil && s.Spread.Len() > 0 {
			spread = fmt.Sprintf("%.2fs", s.Spread.Mean())
		}
		t.AddRow(
			fmt.Sprintf("%d", s.Stream),
			s.Source.String(),
			fmt.Sprintf("%d", s.Published),
			fmt.Sprintf("%.1f%%", 100*s.Reliability),
			fmt.Sprintf("%.1f%%", 100*s.Connected),
			delay,
			spread,
		)
	}
	return t
}

// BlobTable renders the per-blob-workload results as aligned rows.
func (r *Report) BlobTable() *Table {
	t := &Table{Header: []string{
		"blob stream", "source", "blobs", "bytes", "reliability", "p50 recon", "p50 MB/s", "upload overhead", "pulled",
	}}
	for _, s := range r.Blobs {
		recon, mbps := "-", "-"
		if s.Latency != nil && s.Latency.Len() > 0 {
			recon = fmt.Sprintf("%.1fms", s.Latency.Median()*1000)
		}
		if s.Throughput != nil && s.Throughput.Len() > 0 {
			mbps = fmt.Sprintf("%.2f", s.Throughput.Median())
		}
		t.AddRow(
			fmt.Sprintf("%d", s.Stream),
			s.Source.String(),
			fmt.Sprintf("%d", s.Published),
			fmt.Sprintf("%d", s.BlobBytes),
			fmt.Sprintf("%.1f%%", 100*s.Reliability),
			recon,
			mbps,
			fmt.Sprintf("%.0f%%", s.UploadOverheadPct),
			fmt.Sprintf("%.1f%%", s.PulledPct),
		)
	}
	return t
}

// String renders the report: a header line, the per-stream table, the
// per-blob table when blob workloads ran, and the traffic/churn blocks when
// present.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s (%s) ==\n", r.Name, r.Runtime)
	fmt.Fprintf(&b, "nodes=%d alive=%d elapsed=%v wall=%v\n", r.Nodes, r.Alive,
		r.Elapsed.Round(time.Millisecond), r.Wall.Round(time.Millisecond))
	if len(r.Streams) > 0 {
		b.WriteString(r.Table().String())
	}
	if len(r.Blobs) > 0 {
		b.WriteString(r.BlobTable().String())
	}
	if r.Traffic != nil {
		fmt.Fprintf(&b, "traffic: stab=%.3fMB diss=%.3fMB down(p50)=%.1fKB/s up(p50)=%.1fKB/s\n",
			r.Traffic.StabMB, r.Traffic.DissMB,
			r.Traffic.DownRate.Median(), r.Traffic.UpRate.Median())
	}
	if r.Churn != nil {
		fmt.Fprintf(&b, "churn: window=%v parents-lost/min=%.1f orphans/min=%.1f soft=%.1f%% hard=%.1f%%\n",
			r.Churn.Window, r.Churn.ParentsLostPerMin, r.Churn.OrphansPerMin,
			r.Churn.SoftPct, r.Churn.HardPct)
	}
	if f := r.Faults; f != nil {
		fmt.Fprintf(&b, "faults: loss=%.1f%% dup=%.1f%% reorder=%.1f%% partitions=%d",
			100*f.Loss, 100*f.Duplicate, 100*f.Reorder, f.Partitions)
		if f.BufferCapacity > 0 {
			fmt.Fprintf(&b, " buffer=%d/%s", f.BufferCapacity, f.BufferPolicy)
		}
		i := f.Injected
		fmt.Fprintf(&b, " | injected: lost=%d dup=%d reordered=%d partition-dropped=%d buffer-dropped=%d\n",
			i.Lost, i.Duplicated, i.Reordered, i.PartitionDropped, i.BufferDropped)
	}
	return b.String()
}

// jsonDist summarizes a distribution for machine-readable output.
type jsonDist struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	Max  float64 `json:"max"`
}

func distJSON(d *Dist) *jsonDist {
	if d == nil || d.Len() == 0 {
		return nil
	}
	return &jsonDist{N: d.Len(), Mean: d.Mean(), P50: d.Median(), P90: d.Percentile(90), Max: d.Max()}
}

// MarshalJSON emits the report as summarized, machine-readable JSON — the
// per-scenario record the benchmark suite accumulates in
// BENCH_scenarios.json.
func (r *Report) MarshalJSON() ([]byte, error) {
	type jsonStream struct {
		Stream       StreamID  `json:"stream"`
		Source       string    `json:"source"`
		Published    int       `json:"published"`
		Reliability  float64   `json:"reliability"`
		Connected    float64   `json:"connected"`
		Delays       *jsonDist `json:"delays_s,omitempty"`
		Spread       *jsonDist `json:"spread_s,omitempty"`
		Duplicates   *jsonDist `json:"duplicates_per_msg,omitempty"`
		Construction *jsonDist `json:"construction_s,omitempty"`
	}
	type jsonBlob struct {
		Stream            StreamID  `json:"stream"`
		Source            string    `json:"source"`
		Published         int       `json:"published"`
		BlobBytes         int64     `json:"blob_bytes"`
		Reliability       float64   `json:"reliability"`
		Latency           *jsonDist `json:"latency_s,omitempty"`
		Throughput        *jsonDist `json:"mbps,omitempty"`
		UploadOverheadPct float64   `json:"upload_overhead_pct"`
		PulledPct         float64   `json:"pulled_pct"`
	}
	type jsonTraffic struct {
		StabMB   float64   `json:"stab_mb"`
		DissMB   float64   `json:"diss_mb"`
		DownRate *jsonDist `json:"down_kbps,omitempty"`
		UpRate   *jsonDist `json:"up_kbps,omitempty"`
	}
	type jsonChurn struct {
		WindowS           float64   `json:"window_s"`
		ParentsLostPerMin float64   `json:"parents_lost_per_min"`
		OrphansPerMin     float64   `json:"orphans_per_min"`
		SoftPct           float64   `json:"soft_pct"`
		HardPct           float64   `json:"hard_pct"`
		HardDelays        *jsonDist `json:"hard_delays_s,omitempty"`
	}
	type jsonFaults struct {
		Loss             float64 `json:"loss"`
		Duplicate        float64 `json:"duplicate"`
		Reorder          float64 `json:"reorder"`
		Partitions       int     `json:"partitions,omitempty"`
		BufferCapacity   int     `json:"buffer_capacity,omitempty"`
		BufferPolicy     string  `json:"buffer_policy,omitempty"`
		Lost             uint64  `json:"lost"`
		Duplicated       uint64  `json:"duplicated"`
		Reordered        uint64  `json:"reordered"`
		PartitionDropped uint64  `json:"partition_dropped"`
		BufferDropped    uint64  `json:"buffer_dropped"`
	}
	out := struct {
		Name      string       `json:"name"`
		Runtime   string       `json:"runtime"`
		GoVersion string       `json:"go_version,omitempty"`
		Nodes     int          `json:"nodes"`
		Alive     int          `json:"alive"`
		ElapsedS  float64      `json:"elapsed_s"`
		WallMS    float64      `json:"wall_ms"`
		Streams   []jsonStream `json:"streams"`
		Blobs     []jsonBlob   `json:"blobs,omitempty"`
		Traffic   *jsonTraffic `json:"traffic,omitempty"`
		Churn     *jsonChurn   `json:"churn,omitempty"`
		Faults    *jsonFaults  `json:"faults,omitempty"`
	}{
		Name:      r.Name,
		Runtime:   r.Runtime,
		GoVersion: r.GoVersion,
		Nodes:     r.Nodes,
		Alive:     r.Alive,
		ElapsedS:  r.Elapsed.Seconds(),
		WallMS:    float64(r.Wall.Microseconds()) / 1000,
	}
	for _, s := range r.Streams {
		out.Streams = append(out.Streams, jsonStream{
			Stream:       s.Stream,
			Source:       s.Source.String(),
			Published:    s.Published,
			Reliability:  s.Reliability,
			Connected:    s.Connected,
			Delays:       distJSON(s.Delays),
			Spread:       distJSON(s.Spread),
			Duplicates:   distJSON(s.Duplicates),
			Construction: distJSON(s.Construction),
		})
	}
	for _, s := range r.Blobs {
		out.Blobs = append(out.Blobs, jsonBlob{
			Stream:            s.Stream,
			Source:            s.Source.String(),
			Published:         s.Published,
			BlobBytes:         s.BlobBytes,
			Reliability:       s.Reliability,
			Latency:           distJSON(s.Latency),
			Throughput:        distJSON(s.Throughput),
			UploadOverheadPct: s.UploadOverheadPct,
			PulledPct:         s.PulledPct,
		})
	}
	if r.Traffic != nil {
		out.Traffic = &jsonTraffic{
			StabMB:   r.Traffic.StabMB,
			DissMB:   r.Traffic.DissMB,
			DownRate: distJSON(r.Traffic.DownRate),
			UpRate:   distJSON(r.Traffic.UpRate),
		}
	}
	if r.Churn != nil {
		out.Churn = &jsonChurn{
			WindowS:           r.Churn.Window.Seconds(),
			ParentsLostPerMin: r.Churn.ParentsLostPerMin,
			OrphansPerMin:     r.Churn.OrphansPerMin,
			SoftPct:           r.Churn.SoftPct,
			HardPct:           r.Churn.HardPct,
			HardDelays:        distJSON(r.Churn.HardDelays),
		}
	}
	if f := r.Faults; f != nil {
		out.Faults = &jsonFaults{
			Loss:             f.Loss,
			Duplicate:        f.Duplicate,
			Reorder:          f.Reorder,
			Partitions:       f.Partitions,
			BufferCapacity:   f.BufferCapacity,
			BufferPolicy:     f.BufferPolicy,
			Lost:             f.Injected.Lost,
			Duplicated:       f.Injected.Duplicated,
			Reordered:        f.Injected.Reordered,
			PartitionDropped: f.Injected.PartitionDropped,
			BufferDropped:    f.Injected.BufferDropped,
		}
	}
	return json.Marshal(out)
}
