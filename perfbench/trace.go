package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// spanKind names the public function a span wraps; each belongs to one
// layer of the pipeline.
type spanKind uint8

const (
	spBench spanKind = iota // a worker's whole loop: the benchmark's own code
	spSimRun
	spHarnessFingerprint
	spHarnessCond
	spHarnessCell
	spParse
	spTestFingerprint
	spPrepare
	spEnumerate
	spEval
	spServiceJudge
	spServiceRun
	spServiceSweep
	numSpanKinds
)

var spanInfo = [numSpanKinds]struct{ name, layer string }{
	spBench:              {"bench.loop", "bench"},
	spSimRun:             {"sim.Run", "sim"},
	spHarnessFingerprint: {"harness.Fingerprint", "harness"},
	spHarnessCond:        {"harness.cond_eval", "harness"},
	spHarnessCell:        {"harness.cell", "harness"},
	spParse:              {"litmus.Parse", "litmus"},
	spTestFingerprint:    {"litmus.Test.Fingerprint", "litmus"},
	spPrepare:            {"axiom.Prepare", "axiom"},
	spEnumerate:          {"axiom.Enumeration.Stream", "axiom"},
	spEval:               {"cat.Program.RunExecVerdict", "cat"},
	spServiceJudge:       {"service.judge", "service"},
	spServiceRun:         {"service.run", "service"},
	spServiceSweep:       {"service.sweep", "service"},
}

// layers lists every layer a span can be charged to, in report order.
var layers = []string{"bench", "harness", "sim", "litmus", "axiom", "cat", "service"}

// maxSpanRecords bounds the spans kept for --spans; later spans still
// count toward self times but are not written out.
const maxSpanRecords = 1 << 21

// spanRec is one finished span: name, start, end, parent and the id of
// the operation it belongs to.
type spanRec struct {
	kind       spanKind
	parent     int32 // stack depth of the parent span, -1 at the root
	op         int64
	start, end int64 // nanoseconds since the tracer started
}

// tracer collects spans in memory from any number of tracks (one per
// goroutine) and aggregates them into per-span self times.
type tracer struct {
	t0     time.Time
	keep   bool
	mu     sync.Mutex
	tracks []*track
}

func newTracer(keep bool) *tracer { return &tracer{t0: time.Now(), keep: keep} }

// track is one goroutine's span stack. A track must not be used by two
// goroutines at once.
type track struct {
	tr      *tracer
	op      int64
	stack   []openSpan
	self    [numSpanKinds]int64
	count   [numSpanKinds]int64
	recs    []spanRec
	dropped int64
}

type openSpan struct {
	kind  spanKind
	start int64
	child int64 // time covered by finished children
}

// newTrack returns a new track, or nil (on which every method is a no-op)
// for a nil tracer: the untraced twin of a traced drive runs the same code.
func (tr *tracer) newTrack() *track {
	if tr == nil {
		return nil
	}
	tk := &track{tr: tr}
	tr.mu.Lock()
	tr.tracks = append(tr.tracks, tk)
	tr.mu.Unlock()
	return tk
}

// setOp tags the spans begun from now on with an operation id.
func (tk *track) setOp(op int64) {
	if tk != nil {
		tk.op = op
	}
}

func (tk *track) begin(k spanKind) {
	if tk == nil {
		return
	}
	tk.stack = append(tk.stack, openSpan{kind: k, start: int64(time.Since(tk.tr.t0))})
}

// end finishes the innermost open span.
func (tk *track) end() {
	if tk == nil {
		return
	}
	now := int64(time.Since(tk.tr.t0))
	top := tk.stack[len(tk.stack)-1]
	tk.stack = tk.stack[:len(tk.stack)-1]
	dur := now - top.start
	tk.self[top.kind] += dur - top.child
	tk.count[top.kind]++
	parent := int32(-1)
	if n := len(tk.stack); n > 0 {
		tk.stack[n-1].child += dur
		parent = int32(n - 1) // resolved to a record index below
	}
	if !tk.tr.keep {
		return
	}
	if len(tk.recs) >= maxSpanRecords {
		tk.dropped++
		return
	}
	// Children finish before their parents, so a parent's record index is
	// not known yet; record the stack depth and resolve it when written.
	tk.recs = append(tk.recs, spanRec{kind: top.kind, parent: parent, op: tk.op, start: top.start, end: now})
}

// totals sums self time (ns) and span counts per kind over every track.
func (tr *tracer) totals() (self, count [numSpanKinds]int64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, tk := range tr.tracks {
		for k := range self {
			self[k] += tk.self[k]
			count[k] += tk.count[k]
		}
	}
	return self, count
}

// layerSelf sums self time per layer, in seconds.
func (tr *tracer) layerSelf() map[string]float64 {
	self, _ := tr.totals()
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for k := spanKind(0); k < numSpanKinds; k++ {
		out[spanInfo[k].layer] += float64(self[k]) / 1e9
	}
	return out
}

// perCall is the mean self time of one span kind in microseconds.
func (tr *tracer) perCall(k spanKind) float64 {
	self, count := tr.totals()
	if count[k] == 0 {
		return 0
	}
	return float64(self[k]) / float64(count[k]) / 1e3
}

// setLayerShares reports each layer's share of all traced self time and
// the total number of spans.
func (tr *tracer) setLayerShares(r *report) {
	ls := tr.layerSelf()
	total := 0.0
	for _, v := range ls {
		total += v
	}
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = ls[l] / total
		}
		r.set(l+".self_share", share, "ratio")
	}
	_, count := tr.totals()
	var n int64
	for _, c := range count {
		n += c
	}
	r.set("trace.spans", float64(n), "count")
}

// writeSpans dumps every kept span as one JSON object per line. Parent
// is the index of the enclosing span's line within the same track, or -1.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Track  int    `json:"track"`
		Index  int    `json:"index"`
		Name   string `json:"name"`
		Layer  string `json:"layer"`
		Parent int    `json:"parent"`
		Op     int64  `json:"op"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var dropped int64
	for ti, tk := range tr.tracks {
		dropped += tk.dropped
		// Records are in finish order; a parent is the first later record
		// at the depth just above that encloses the child's interval.
		parents := resolveParents(tk.recs)
		for i, rec := range tk.recs {
			if err := enc.Encode(line{
				Track: ti, Index: i, Name: spanInfo[rec.kind].name, Layer: spanInfo[rec.kind].layer,
				Parent: parents[i], Op: rec.op, Start: rec.start, End: rec.end,
			}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if dropped > 0 {
		fmt.Fprintf(w, "{\"dropped\":%d}\n", dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resolveParents maps each record (stored with its parent's stack depth)
// to the index of its parent record: the next record, in finish order,
// at that depth.
func resolveParents(recs []spanRec) []int {
	parents := make([]int, len(recs))
	pending := map[int32][]int{} // depth -> children waiting for their parent
	for i, rec := range recs {
		depth := int32(0)
		if rec.parent >= 0 {
			depth = rec.parent + 1
		}
		// This record closes every child waiting one level below it.
		for _, c := range pending[depth] {
			parents[c] = i
		}
		delete(pending, depth)
		if rec.parent < 0 {
			parents[i] = -1
		} else {
			pending[rec.parent] = append(pending[rec.parent], i)
		}
	}
	for _, cs := range pending {
		for _, c := range cs {
			parents[c] = -1
		}
	}
	return parents
}

// finishTrace reports the per-layer shares and writes the spans out when
// the run asked for them.
func (e *env) finishTrace(r *report, tr *tracer) error {
	tr.setLayerShares(r)
	if e.spans == "" {
		return nil
	}
	return tr.writeSpans(e.spans)
}

// setOverhead reports how the traced run's time per unit of work relates
// to the untraced workload's. A traced run measures three windows: the
// workload through the public pipeline, the benchmark's own drive of the
// layers without spans, and the same drive with spans. The tracing
// overhead is the third against the second; the drive gap is the second
// against the first, the part of the pipeline's wall time that the
// drive's spans do not see (dispatch, ordered merge, memo bookkeeping).
func setOverhead(r *report, pipelinePerUnit, drivePerUnit, tracedPerUnit float64) {
	r.set("trace.overhead_share", ratio(tracedPerUnit, drivePerUnit)-1, "ratio")
	r.set("trace.drive_gap_share", 1-ratio(drivePerUnit, pipelinePerUnit), "ratio")
}

// tracedWindows splits a traced run's window into its three phases.
func (e *env) tracedWindows() (pipeline, drive, traced time.Duration) {
	w := e.window / 3
	return w, w, w
}
