package brisa

import (
	"cmp"
	"hash/fnv"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// collector accumulates in-run measurements for every workload.
//
// Concurrency/determinism design, shared by three execution shapes — the
// sequential simulator (one goroutine), the sharded simulator (one
// goroutine per scheduler shard) and the live runtime (one goroutine per
// node): all hot-path accounting goes into per-node accumulators owned by
// that node's actor, so deliveries need no cross-node lock and every
// accumulator fills in a deterministic order. Shared state (publish
// timestamps, registration) sits behind an RWMutex that the delivery path
// only read-locks. Report folding iterates nodes in sorted id order, so
// float summation order — and with it the Report JSON — is bit-identical
// across runs and across simulator worker counts.
type collector struct {
	sc Scenario

	mu  sync.RWMutex
	ws  []*workloadState
	bws []*blobWorkloadState
	// hard collects per-node hard-repair recovery delays (ProbeRepairs),
	// merged in sorted node order by hardRepairDelays.
	hard    map[NodeID]*stats.Sample
	cancels []func()
}

// workloadState is the in-run state of one workload.
type workloadState struct {
	w      Workload
	source NodeID
	pubAt  map[uint32]time.Time
	pubs   int
	// accs holds one accumulator per instrumented node (the source's stays
	// empty: the paper measures receptions).
	accs map[NodeID]*nodeAcc
	// hist streams every measured delivery delay of this workload into a
	// fixed-size log-binned histogram. Its atomic bins commute, so shard
	// goroutines add to it without locks and the final counts are
	// worker-count-invariant; the fold rebuilds the Delays distribution
	// from it and calibrates the exact moments from the per-node
	// accumulators. This is what keeps a 100k-node run's delay accounting
	// at O(nodes) scalars instead of O(deliveries) buffered samples.
	hist *stats.LogHist
}

// nodeAcc is one node's delivery accounting for one workload. It is only
// ever touched from that node's actor callbacks, serially. Deliberately
// O(1): at 100k nodes these accumulators are the collector's footprint.
type nodeAcc struct {
	n           uint64  // measured deliveries
	sum         float64 // total delay, seconds
	min, max    float64 // exact delay extremes, seconds
	first, last time.Time
	dups        uint64
}

// record adds one measured delivery delay (in seconds).
func (acc *nodeAcc) record(d float64) {
	if acc.n == 0 || d < acc.min {
		acc.min = d
	}
	if acc.n == 0 || d > acc.max {
		acc.max = d
	}
	acc.n++
	acc.sum += d
}

// blobWorkloadState is the in-run state of one blob workload.
type blobWorkloadState struct {
	w      BlobWorkload
	source NodeID
	pubs   int
	bytes  int64
	// hashes holds the FNV-64a content hash of every published blob, keyed
	// by blob id. Receivers' reassembled bytes are verified against it at
	// fold time, so Reliability means byte-identical reconstruction, not
	// just "something completed".
	hashes map[uint32]uint64
	accs   map[NodeID]*blobAcc
}

// blobAcc is one node's blob accounting for one workload. Like nodeAcc it is
// only ever touched from that node's actor callbacks, serially; the fold
// reads it after the collector detaches.
type blobAcc struct {
	recs map[uint32]blobRec
}

// blobRec is one reconstructed blob on one node, measured at completion on
// the node's own clock so no cross-node state is needed at delivery time.
type blobRec struct {
	hash uint64
	lat  float64 // first chunk received → reconstruction, seconds
	mbps float64 // payload MB over lat (0 when lat is 0: single-event blobs)
}

// newBlobRec derives one completed blob's record from its content hash,
// payload size and first-chunk-to-reconstruction latency.
func newBlobRec(hash uint64, size int, lat time.Duration) blobRec {
	rec := blobRec{hash: hash, lat: lat.Seconds()}
	if rec.lat > 0 {
		rec.mbps = float64(size) / (1 << 20) / rec.lat
	}
	return rec
}

func newCollector(sc Scenario) *collector {
	col := &collector{sc: sc, hard: make(map[NodeID]*stats.Sample)}
	for _, w := range sc.Workloads {
		col.ws = append(col.ws, &workloadState{
			w:     w,
			pubAt: make(map[uint32]time.Time),
			accs:  make(map[NodeID]*nodeAcc),
			hist:  stats.NewLogHist(),
		})
	}
	for _, w := range sc.BlobWorkloads {
		col.bws = append(col.bws, &blobWorkloadState{
			w:      w,
			hashes: make(map[uint32]uint64),
			accs:   make(map[NodeID]*blobAcc),
		})
	}
	return col
}

// setSource records a workload's resolved source node.
func (col *collector) setSource(wi int, id NodeID) {
	col.mu.Lock()
	col.ws[wi].source = id
	col.mu.Unlock()
}

// setBlobSource records a blob workload's resolved source node.
func (col *collector) setBlobSource(wi int, id NodeID) {
	col.mu.Lock()
	col.bws[wi].source = id
	col.mu.Unlock()
}

// blobPublished records one blob injection: its id, payload size and content
// hash. Unlike published it may run after remote deliveries — verification
// happens at fold time, which every publish strictly precedes.
func (col *collector) blobPublished(wi int, id uint32, size int, hash uint64) {
	col.mu.Lock()
	bs := col.bws[wi]
	bs.hashes[id] = hash
	bs.pubs++
	bs.bytes += int64(size)
	col.mu.Unlock()
}

// published records one injection. Call it before the Publish so a delivery
// racing ahead on another node still finds the timestamp.
func (col *collector) published(wi int, seq uint32, at time.Time) {
	col.mu.Lock()
	ws := col.ws[wi]
	ws.pubAt[seq] = at
	ws.pubs++
	col.mu.Unlock()
}

// delivered records one delivery into the node's accumulator.
func (col *collector) delivered(wi int, acc *nodeAcc, id NodeID, seq uint32, at time.Time) {
	col.mu.RLock()
	ws := col.ws[wi]
	src := ws.source
	var t0 time.Time
	measured := false
	if int(seq) > ws.w.Warmup {
		t0, measured = ws.pubAt[seq]
	}
	col.mu.RUnlock()
	if id == src {
		return
	}
	if acc.first.IsZero() {
		acc.first = at
	}
	acc.last = at
	if measured {
		d := at.Sub(t0).Seconds()
		acc.record(d)
		ws.hist.Add(d)
	}
}

// register creates one node's accumulators: a delivery and a blob
// accumulator per workload, plus a hard-repair sample when ProbeRepairs is
// on (nil otherwise). The node's actor — or, on the distributed runtime, the
// barrier folding its worker's flush answers — is their only writer.
func (col *collector) register(id NodeID) (accs []*nodeAcc, baccs []*blobAcc, hard *stats.Sample) {
	accs = make([]*nodeAcc, len(col.ws))
	baccs = make([]*blobAcc, len(col.bws))
	col.mu.Lock()
	defer col.mu.Unlock()
	for wi := range col.ws {
		accs[wi] = &nodeAcc{}
		col.ws[wi].accs[id] = accs[wi]
	}
	for wi := range col.bws {
		baccs[wi] = &blobAcc{recs: make(map[uint32]blobRec)}
		col.bws[wi].accs[id] = baccs[wi]
	}
	if col.sc.probed(ProbeRepairs) {
		hard = &stats.Sample{}
		col.hard[id] = hard
	}
	return accs, baccs, hard
}

// instrument attaches the collector to one peer: a blob listener per blob
// workload, a delivery listener per workload (when the latency probe is on)
// and one event listener for duplicates and repair delays. It covers peers
// added mid-run by churn. Delivery timestamps come from the peer's own
// clock (virtual and shard-local on the simulator, wall on the live
// runtime).
func (col *collector) instrument(p *Peer) {
	id := p.ID()
	now := p.sys.Now
	accs, baccs, hard := col.register(id)
	wantDups := col.sc.probed(ProbeDuplicates)
	wantRepairs := hard != nil
	// Blob completions are always recorded when blob workloads exist: the
	// content-hash verification behind Reliability needs them regardless of
	// probes, and blobs are few.
	for wi := range col.bws {
		acc, stream := baccs[wi], col.bws[wi].w.Stream
		cancel := p.brisa.Blobs().Add(func(d core.BlobDelivery) {
			if d.Stream == stream {
				acc.recs[d.ID] = newBlobRec(blobHash(d.Data), len(d.Data), d.At.Sub(d.FirstChunkAt))
			}
		})
		col.addCancel(cancel)
	}
	if col.sc.probed(ProbeLatency) {
		for wi := range col.ws {
			acc, stream := accs[wi], col.ws[wi].w.Stream
			cancel := p.sys.Deliveries().Add(func(d core.Delivery) {
				if d.Stream == stream {
					col.delivered(wi, acc, id, d.Seq, now())
				}
			})
			col.addCancel(cancel)
		}
	}
	if !wantDups && !wantRepairs {
		return
	}
	cancel := p.sys.Events().Add(func(ev Event) {
		switch {
		case wantDups && ev.Type == EvDuplicate:
			for wi := range col.ws {
				if col.ws[wi].w.Stream != ev.Stream {
					continue
				}
				col.mu.RLock()
				src := col.ws[wi].source
				col.mu.RUnlock()
				if id != src {
					accs[wi].dups++
				}
			}
		case wantRepairs && ev.Type == EvRepaired && ev.Hard:
			hard.AddDuration(ev.Dur)
		}
	})
	col.addCancel(cancel)
}

// hardRepairDelays folds the per-node hard-repair samples in sorted node
// order.
func (col *collector) hardRepairDelays() *stats.Sample {
	col.mu.Lock()
	defer col.mu.Unlock()
	out := &stats.Sample{}
	for _, id := range sortedKeys(col.hard) {
		out.Merge(col.hard[id])
	}
	return out
}

func (col *collector) addCancel(fn func()) {
	col.mu.Lock()
	col.cancels = append(col.cancels, fn)
	col.mu.Unlock()
}

// detach unregisters every listener.
func (col *collector) detach() {
	col.mu.Lock()
	cancels := col.cancels
	col.cancels = nil
	col.mu.Unlock()
	for _, fn := range cancels {
		fn()
	}
}

// peerSnapshot is one node's end-of-run state for one stream.
type peerSnapshot struct {
	delivered    uint64
	orphan       bool
	parents      []NodeID
	depth        int
	depthOK      bool
	construction time.Duration
	constructOK  bool
}

// streamReport folds one workload's collected state plus the survivors'
// end-of-run snapshots into its report.
func (col *collector) streamReport(wi int, survivors []memberSnapshot) *StreamReport {
	col.mu.Lock()
	defer col.mu.Unlock()
	ws := col.ws[wi]
	sr := &StreamReport{
		Stream:    ws.w.Stream,
		Source:    ws.source,
		Published: ws.pubs,
	}

	var complete, connected, counted int
	for _, m := range survivors {
		if m.id == ws.source {
			continue
		}
		snap := m.streams[wi]
		counted++
		// A workload that published nothing is vacuously complete.
		if snap.delivered == uint64(ws.pubs) {
			complete++
		}
		if snap.delivered > 0 && !snap.orphan {
			connected++
		}
	}
	if counted == 0 {
		sr.Reliability, sr.Connected = 1, 1
	} else {
		sr.Reliability = float64(complete) / float64(counted)
		sr.Connected = float64(connected) / float64(counted)
	}

	if col.sc.probed(ProbeLatency) {
		all, nodeMean, spread := &stats.Sample{}, &stats.Sample{}, &stats.Sample{}
		// The delay distribution streams through the workload's log-binned
		// histogram (shard goroutines add to it lock-free; the bins
		// commute, so the counts are worker-count-invariant). The exact
		// moments — sum, min, max — fold from the O(1) per-node
		// accumulators in sorted node order: float summation order must not
		// depend on map iteration, so the Report JSON stays bit-identical
		// across runs and across simulator worker counts.
		var (
			n      uint64
			sum    float64
			lo, hi float64
		)
		for _, id := range sortedKeys(ws.accs) {
			acc := ws.accs[id]
			if acc.n > 0 {
				if n == 0 || acc.min < lo {
					lo = acc.min
				}
				if n == 0 || acc.max > hi {
					hi = acc.max
				}
				n += acc.n
				sum += acc.sum
				nodeMean.Add(acc.sum / float64(acc.n))
			}
			if !acc.first.IsZero() && acc.last.After(acc.first) {
				spread.AddDuration(acc.last.Sub(acc.first))
			}
		}
		ws.hist.FoldInto(all)
		if n > 0 {
			all.Calibrate(sum, lo, hi)
		}
		sr.Delays, sr.NodeDelays, sr.Spread = all, nodeMean, spread
	}

	if col.sc.probed(ProbeDuplicates) {
		d := &stats.Sample{}
		denom := float64(ws.pubs)
		if denom == 0 {
			denom = 1
		}
		for _, m := range survivors {
			if m.id == ws.source {
				continue
			}
			var dups uint64
			if acc := ws.accs[m.id]; acc != nil {
				dups = acc.dups
			}
			d.Add(float64(dups) / denom)
		}
		sr.Duplicates = d
	}

	if col.sc.probed(ProbeStructure) {
		sr.Parents = make(map[NodeID][]NodeID)
		sr.Degrees = stats.NewIntHistogram()
		degrees := make(map[NodeID]int, len(survivors))
		for _, m := range survivors {
			degrees[m.id] += 0
			if m.id == ws.source {
				continue
			}
			sr.Parents[m.id] = m.streams[wi].parents
			for _, par := range m.streams[wi].parents {
				degrees[par]++
			}
		}
		for _, d := range degrees {
			sr.Degrees.Add(d)
		}
		sr.Depths = depthHistogram(ws.source, sr.Parents)
	}

	if col.sc.probed(ProbeConstruction) {
		c := &stats.Sample{}
		for _, m := range survivors {
			if snap := m.streams[wi]; snap.constructOK {
				c.AddDuration(snap.construction)
			}
		}
		sr.Construction = c
	}
	return sr
}

// blobStreamReport folds one blob workload's collected state plus
// end-of-run counter polls into its report (the source's own counters, found
// among the survivors — sources are never churn victims — give the upload
// overhead). Folding runs in sorted node order and ascending blob-id order
// within a node, so float summation order — and with it the Report JSON — is
// bit-identical across runs and across simulator worker counts.
func (col *collector) blobStreamReport(wi int, survivors []memberSnapshot) *BlobStreamReport {
	col.mu.Lock()
	defer col.mu.Unlock()
	bs := col.bws[wi]
	br := &BlobStreamReport{
		Stream:    bs.w.Stream,
		Source:    bs.source,
		Published: bs.pubs,
		BlobBytes: bs.bytes,
	}

	ids := make([]uint32, 0, len(bs.hashes))
	for id := range bs.hashes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	survivors = slices.Clone(survivors) // the caller's order is the other folds'
	slices.SortFunc(survivors, func(a, b memberSnapshot) int { return cmp.Compare(a.id, b.id) })

	lat, thr := &stats.Sample{}, &stats.Sample{}
	var complete, counted int
	var pulled, received uint64
	var srcStats BlobStats
	for _, m := range survivors {
		if m.id == bs.source {
			srcStats = m.blobs[wi]
			continue
		}
		counted++
		pulled += m.blobs[wi].ChunksPulled
		received += m.blobs[wi].ChunksReceived
		acc := bs.accs[m.id]
		intact := true
		for _, id := range ids {
			var rec blobRec
			ok := false
			if acc != nil {
				rec, ok = acc.recs[id]
			}
			if !ok || rec.hash != bs.hashes[id] {
				intact = false
				continue
			}
			lat.Add(rec.lat)
			if rec.mbps > 0 {
				thr.Add(rec.mbps)
			}
		}
		// A workload that published nothing is vacuously complete.
		if intact {
			complete++
		}
	}
	if counted == 0 {
		br.Reliability = 1
	} else {
		br.Reliability = float64(complete) / float64(counted)
	}
	br.Latency, br.Throughput = lat, thr
	if bs.bytes > 0 {
		br.UploadOverheadPct = 100 * float64(srcStats.ChunkBytesSent) / float64(bs.bytes)
	}
	if received > 0 {
		br.PulledPct = 100 * float64(pulled) / float64(received)
	}
	return br
}

// blobPayload derives the content of a blob workload's idx-th blob. The
// pattern (splitmix64 keyed by stream and index) is a pure function, so both
// runtimes generate identical bytes without any global RNG and receivers'
// reassembled payloads verify against the source's content hash.
func blobPayload(stream StreamID, idx, size int) []byte {
	out := make([]byte, size)
	x := (uint64(stream)+1)*0x9e3779b97f4a7c15 ^ (uint64(idx)+1)*0xbf58476d1ce4e5b9
	for i := 0; i < size; i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		for j := 0; j < 8 && i+j < size; j++ {
			out[i+j] = byte(z >> (8 * j))
		}
	}
	return out
}

// blobHash is the FNV-64a content hash blob verification runs on.
func blobHash(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// sortedKeys returns a map's NodeID keys ascending.
func sortedKeys[V any](m map[NodeID]V) []NodeID {
	out := make([]NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// depthHistogram derives the longest-path-from-source depth of every node
// (the paper's Figure 6 definition) from the captured parent links, via
// memoized DFS with cycle detection. Nodes on a residual cycle (possible
// only transiently) get no entry.
func depthHistogram(source NodeID, parents map[NodeID][]NodeID) *IntDist {
	const (
		unvisited = 0
		onStack   = 1
		done      = 2
	)
	depths := make(map[NodeID]int, len(parents))
	state := make(map[NodeID]int, len(parents))
	var depthOf func(id NodeID) (int, bool)
	depthOf = func(id NodeID) (int, bool) {
		if id == source {
			return 0, true
		}
		if d, ok := depths[id]; ok {
			return d, true
		}
		if state[id] == onStack || state[id] == done {
			return 0, false // cycle or previously found unrooted
		}
		state[id] = onStack
		best := -1
		for _, par := range parents[id] {
			if d, ok := depthOf(par); ok && d+1 > best {
				best = d + 1
			}
		}
		state[id] = done
		if best < 0 {
			return 0, false
		}
		depths[id] = best
		return best, true
	}
	h := stats.NewIntHistogram()
	h.Add(0) // the source
	for id := range parents {
		if d, ok := depthOf(id); ok {
			h.Add(d)
		}
	}
	return h
}

// snapshot reads one peer's end-of-run state.
func snapshotPeer(p *Peer, stream StreamID) peerSnapshot {
	snap := peerSnapshot{
		delivered: p.DeliveredCount(stream),
		orphan:    p.IsOrphan(stream),
		parents:   p.Parents(stream),
	}
	snap.depth, snap.depthOK = p.Depth(stream)
	snap.construction, snap.constructOK = p.ConstructionTime(stream)
	return snap
}
