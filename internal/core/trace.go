package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"clustersmt/internal/coherence"
)

// Tracing records pipeline and memory events for a cycle window through
// one of two sinks: a human-readable text log (TraceTo) or a Chrome
// trace_event JSON file (TraceChromeTo) loadable in chrome://tracing or
// Perfetto. Both sinks buffer their writer; Run flushes at exit (even
// on MaxCycles aborts, so partial traces stay usable).
//
// Tracing is read-only: every hook fires after the simulation decision
// it observes, and the directory-transaction hooks only read cumulative
// counters. Result is bit-identical with tracing on or off (enforced by
// TestObsResultNeutral).
//
// Event kinds:
//
//	F  fetched          I  issued          C  committed
//	S  squashed — a mispredicted branch redirecting fetch. The
//	   simulator fetches no wrong-path instructions (fetch blocks at
//	   the mispredict until resolve), so the squash marks the redirect
//	   point rather than discarded work.
//	M  memory span — a load satisfied beyond the L1, spanning issue to
//	   data return.
//	D  directory transaction — invalidations, downgrades, writebacks or
//	   three-hop forwards triggered by one access.
type tracer struct {
	sink     traceSink
	from, to int64
}

func (t *tracer) covers(now int64) bool { return now >= t.from && now < t.to }

func (t *tracer) flush() { t.sink.flush() }

// traceSink renders trace events to some format.
type traceSink interface {
	event(now int64, cl *cluster, kind string, e *entry)
	memSpan(start, end int64, cl *cluster, e *entry, cls coherence.AccessClass)
	dirEvent(now int64, cl *cluster, e *entry, kind string, n uint64)
	flush()
}

// TraceTo directs events in cycles [from, to) to w as one text line per
// event. Pass to <= 0 to trace until the end of the run. Must be called
// before Run.
func (s *Simulator) TraceTo(w io.Writer, from, to int64) {
	if to <= 0 {
		to = 1 << 62
	}
	s.tr = &tracer{sink: &textSink{w: bufio.NewWriter(w)}, from: from, to: to}
}

// TraceChromeTo directs events in cycles [from, to) to w as a Chrome
// trace_event JSON array (one process per cluster, one track per
// thread; ts is the cycle number with 1 cycle = 1 "µs"). Pass to <= 0
// to trace until the end of the run. Must be called before Run.
func (s *Simulator) TraceChromeTo(w io.Writer, from, to int64) {
	if to <= 0 {
		to = 1 << 62
	}
	s.tr = &tracer{sink: newChromeSink(w), from: from, to: to}
}

// traceEvent emits one pipeline event if tracing covers cycle now.
// kind is "F" (fetched), "I" (issued), "C" (committed) or "S"
// (squashed: mispredicted branch redirecting fetch).
func (s *Simulator) traceEvent(now int64, cl *cluster, kind string, e *entry) {
	if s.tr == nil || !s.tr.covers(now) {
		return
	}
	s.tr.sink.event(now, cl, kind, e)
}

// traceMem emits a memory span for a load satisfied beyond the L1,
// from its issue cycle to data return.
func (s *Simulator) traceMem(start, end int64, cl *cluster, e *entry, cls coherence.AccessClass) {
	if s.tr == nil || !s.tr.covers(start) || cls == coherence.L1Hit {
		return
	}
	s.tr.sink.memSpan(start, end, cl, e, cls)
}

// dirCounters snapshots the directory's cumulative transaction counts;
// traceDirDelta turns the difference across one access into events.
type dirCounters struct {
	inval, down, wb, threeHop uint64
}

func (s *Simulator) dirCounters() dirCounters {
	d := s.msys.Dir
	return dirCounters{inval: d.Invalidations, down: d.Downgrades, wb: d.Writebacks, threeHop: d.ThreeHops}
}

// traceDirDelta emits one event per directory-transaction kind the
// access at cycle now triggered since the pre snapshot was taken.
func (s *Simulator) traceDirDelta(now int64, cl *cluster, e *entry, pre dirCounters) {
	if s.tr == nil || !s.tr.covers(now) {
		return
	}
	post := s.dirCounters()
	if n := post.inval - pre.inval; n > 0 {
		s.tr.sink.dirEvent(now, cl, e, "invalidate", n)
	}
	if n := post.down - pre.down; n > 0 {
		s.tr.sink.dirEvent(now, cl, e, "downgrade", n)
	}
	if n := post.wb - pre.wb; n > 0 {
		s.tr.sink.dirEvent(now, cl, e, "writeback", n)
	}
	if n := post.threeHop - pre.threeHop; n > 0 {
		s.tr.sink.dirEvent(now, cl, e, "three-hop", n)
	}
}

// ---- text sink ----

// textSink renders one line per event through a buffered writer.
type textSink struct {
	w *bufio.Writer
}

func (ts *textSink) event(now int64, cl *cluster, kind string, e *entry) {
	fmt.Fprintf(ts.w, "c%-7d chip%d.cl%d %s t%-2d pc=%-5d %s\n",
		now, cl.chip, cl.idx, kind, e.tid, e.d.PC, e.d.Instr.String())
}

func (ts *textSink) memSpan(start, end int64, cl *cluster, e *entry, cls coherence.AccessClass) {
	fmt.Fprintf(ts.w, "c%-7d chip%d.cl%d M t%-2d pc=%-5d %s +%dcyc\n",
		start, cl.chip, cl.idx, e.tid, e.d.PC, cls.String(), end-start)
}

func (ts *textSink) dirEvent(now int64, cl *cluster, e *entry, kind string, n uint64) {
	fmt.Fprintf(ts.w, "c%-7d chip%d.cl%d D t%-2d pc=%-5d %s x%d\n",
		now, cl.chip, cl.idx, e.tid, e.d.PC, kind, n)
}

func (ts *textSink) flush() { ts.w.Flush() }

// ---- Chrome trace_event sink ----

// chromeSink renders the Chrome trace_event JSON array format: pipeline
// events as thread-scoped instants (ph "i"), memory accesses as
// complete spans (ph "X"), plus process_name/thread_name metadata so
// the viewer labels clusters and hardware threads. One cluster is one
// process (pid chip*256+cluster), one hardware thread is one track.
type chromeSink struct {
	w     *bufio.Writer
	first bool
	// seenPID / seenTID track which metadata records have been emitted.
	seenPID map[int]bool
	seenTID map[int64]bool
}

func newChromeSink(w io.Writer) *chromeSink {
	return &chromeSink{
		w:       bufio.NewWriter(w),
		first:   true,
		seenPID: make(map[int]bool),
		seenTID: make(map[int64]bool),
	}
}

func (cs *chromeSink) pid(cl *cluster) int { return cl.chip*256 + cl.idx }

// sep writes the array opener or the inter-event comma.
func (cs *chromeSink) sep() {
	if cs.first {
		cs.w.WriteString("[\n")
		cs.first = false
	} else {
		cs.w.WriteString(",\n")
	}
}

// meta emits process_name / thread_name metadata the first time a
// (cluster, thread) pair appears.
func (cs *chromeSink) meta(cl *cluster, tid int) {
	pid := cs.pid(cl)
	if !cs.seenPID[pid] {
		cs.seenPID[pid] = true
		cs.sep()
		fmt.Fprintf(cs.w, `{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":"chip%d.cl%d"}}`,
			pid, cl.chip, cl.idx)
	}
	key := int64(pid)<<32 | int64(tid)
	if !cs.seenTID[key] {
		cs.seenTID[key] = true
		cs.sep()
		fmt.Fprintf(cs.w, `{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"thread %d"}}`,
			pid, tid, tid)
	}
}

var chromeKindName = map[string]string{
	"F": "fetch",
	"I": "issue",
	"C": "commit",
	"S": "squash",
}

func (cs *chromeSink) event(now int64, cl *cluster, kind string, e *entry) {
	cs.meta(cl, int(e.tid))
	name := chromeKindName[kind]
	if name == "" {
		name = kind
	}
	cs.sep()
	fmt.Fprintf(cs.w, `{"name":%s,"cat":"pipeline","ph":"i","s":"t","ts":%d,"pid":%d,"tid":%d,"args":{"pc":%d,"instr":%s}}`,
		strconv.Quote(name), now, cs.pid(cl), e.tid, e.d.PC, strconv.Quote(e.d.Instr.String()))
}

func (cs *chromeSink) memSpan(start, end int64, cl *cluster, e *entry, cls coherence.AccessClass) {
	cs.meta(cl, int(e.tid))
	dur := end - start
	if dur < 1 {
		dur = 1
	}
	cs.sep()
	fmt.Fprintf(cs.w, `{"name":%s,"cat":"memory","ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d,"args":{"pc":%d,"addr":%d}}`,
		strconv.Quote("load "+cls.String()), start, dur, cs.pid(cl), e.tid, e.d.PC, e.d.Addr)
}

func (cs *chromeSink) dirEvent(now int64, cl *cluster, e *entry, kind string, n uint64) {
	cs.meta(cl, int(e.tid))
	cs.sep()
	fmt.Fprintf(cs.w, `{"name":%s,"cat":"directory","ph":"i","s":"t","ts":%d,"pid":%d,"tid":%d,"args":{"pc":%d,"count":%d}}`,
		strconv.Quote("dir "+kind), now, cs.pid(cl), e.tid, e.d.PC, n)
}

func (cs *chromeSink) flush() {
	if cs.first {
		// No events in the window: still emit a valid (empty) array.
		cs.w.WriteString("[")
	}
	cs.w.WriteString("]\n")
	cs.w.Flush()
}
