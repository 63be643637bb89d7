// Package obs defines the simulator's observability primitives: the
// interval-metrics Frame (one fixed-width window of the run), the
// bounded Buffer that retains recent elements (the Ring of frames here,
// the span store in internal/telemetry), and the CSV/JSON exporters
// behind `clustersim -metrics` and the harness.
//
// The package is deliberately passive — it holds and formats data the
// core simulator snapshots at frame boundaries. The contract that
// sampling is read-only and result-neutral (a run's Result is
// bit-identical with observability on or off) lives in internal/core
// and is enforced by TestObsResultNeutral; see DESIGN.md §6.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"clustersmt/internal/coherence"
	"clustersmt/internal/stats"
)

// DefaultRingCap is the retention bound NewBuffer uses when callers
// pass a non-positive capacity. For frames at the default 10k-cycle
// interval it covers ~41M cycles — longer than any paper-figure run —
// before the ring starts dropping its oldest frames.
const DefaultRingCap = 4096

// Frame is one sampling interval's view of the machine: deltas of every
// cumulative counter over the window plus point-in-time occupancy
// gauges at the window's end. Slot deltas are exact differences of the
// simulator's cumulative tallies, so folding frames back together
// reproduces the end-of-run totals (the frame-conservation property
// test in internal/core).
type Frame struct {
	Index int `json:"frame"`
	// Start and End bound the cycles the frame covers: [Start, End).
	// Every frame but the last spans exactly the sampling interval; the
	// final frame is the partial tail emitted when the run finishes.
	Start  int64 `json:"start_cycle"`
	End    int64 `json:"end_cycle"`
	Cycles int64 `json:"cycles"`

	Committed uint64  `json:"committed"`
	IPC       float64 `json:"ipc"`

	// Running is the running-thread count at End; AvgRunning is its
	// time-average over the window (the Figure 6 measurement, per
	// interval).
	Running    int     `json:"running_threads"`
	AvgRunning float64 `json:"avg_running_threads"`

	// Slots is the machine-wide issue-slot delta, indexed by
	// stats.Category in declaration order (useful, fetch, sync, control,
	// data, memory, structural, other).
	Slots [stats.NumCategories]float64 `json:"slots"`

	// Clusters breaks the slot delta down per cluster.
	Clusters []ClusterSlots `json:"clusters,omitempty"`

	// Mem is the memory system's counter deltas over the window, with
	// its gauges (MSHR occupancy, directory lines) at End.
	Mem coherence.MemSnapshot `json:"mem"`
}

// ClusterSlots is one cluster's share of a frame's slot delta.
type ClusterSlots struct {
	Chip    int                          `json:"chip"`
	Cluster int                          `json:"cluster"`
	Slots   [stats.NumCategories]float64 `json:"slots"`
}

// String renders the frame as a one-line heartbeat (the harness
// progress format).
func (f *Frame) String() string {
	return fmt.Sprintf("frame %d @%d: %d instrs, IPC %.2f, %d running, L1 miss %.1f%%, %d MSHRs, %d dir lines",
		f.Index, f.End, f.Committed, f.IPC, f.Running,
		100*f.Mem.L1MissRate(), f.Mem.MSHROccupancy, f.Mem.DirLines)
}

// CSVHeader returns the metrics CSV header row (no trailing newline).
// Columns: frame identity, machine-wide deltas (one column per slot
// category, in stats order), memory deltas and end-of-window gauges.
// Per-cluster breakdowns are JSON-only.
func CSVHeader() string {
	var b strings.Builder
	b.WriteString("frame,start_cycle,end_cycle,cycles,committed,ipc,running_threads,avg_running_threads")
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		fmt.Fprintf(&b, ",slots_%s", c)
	}
	b.WriteString(",loads,stores,load_retries,l1_hits,l1_misses,l1_miss_rate,l2_hits,l2_misses,l2_miss_rate,mshr_occupancy,dir_lines")
	return b.String()
}

// CSVRecord renders f as one CSV row matching CSVHeader (no trailing
// newline).
func (f *Frame) CSVRecord() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%g,%d,%g",
		f.Index, f.Start, f.End, f.Cycles, f.Committed, f.IPC, f.Running, f.AvgRunning)
	for _, v := range f.Slots {
		fmt.Fprintf(&b, ",%g", v)
	}
	m := &f.Mem
	fmt.Fprintf(&b, ",%d,%d,%d,%d,%d,%g,%d,%d,%g,%d,%d",
		m.Loads, m.Stores, m.LoadRetries,
		m.L1Hits, m.L1Misses, m.L1MissRate(),
		m.L2Hits, m.L2Misses, m.L2MissRate(),
		m.MSHROccupancy, m.DirLines)
	return b.String()
}

// Buffer retains the most recent elements pushed into it in a
// fixed-capacity circular buffer. Pushing past capacity overwrites the
// oldest element; Dropped reports how many were lost. The zero Buffer
// is not usable — construct with NewBuffer.
type Buffer[T any] struct {
	elems  []T
	start  int // index of the oldest retained element
	count  int // retained elements
	pushed int // elements ever pushed
}

// NewBuffer returns a buffer retaining up to capacity elements
// (DefaultRingCap when capacity <= 0).
func NewBuffer[T any](capacity int) Buffer[T] {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	return Buffer[T]{elems: make([]T, capacity)}
}

// Cap returns the buffer's capacity.
func (b *Buffer[T]) Cap() int { return len(b.elems) }

// Len returns the number of retained elements.
func (b *Buffer[T]) Len() int { return b.count }

// Pushed returns the number of elements ever pushed.
func (b *Buffer[T]) Pushed() int { return b.pushed }

// Dropped returns the number of elements overwritten by later pushes.
func (b *Buffer[T]) Dropped() int { return b.pushed - b.count }

// Push appends an element, overwriting the oldest once full.
func (b *Buffer[T]) Push(v T) {
	if b.count < len(b.elems) {
		b.elems[(b.start+b.count)%len(b.elems)] = v
		b.count++
	} else {
		b.elems[b.start] = v
		b.start = (b.start + 1) % len(b.elems)
	}
	b.pushed++
}

// At returns the i-th oldest retained element, 0 <= i < Len.
func (b *Buffer[T]) At(i int) T { return b.elems[(b.start+i)%len(b.elems)] }

// Ring retains the most recent frames of a run. The zero Ring is not
// usable — construct with NewRing.
type Ring struct{ Buffer[Frame] }

// NewRing returns a ring retaining up to capacity frames
// (DefaultRingCap when capacity <= 0).
func NewRing(capacity int) *Ring { return &Ring{NewBuffer[Frame](capacity)} }

// Frames returns the retained frames, oldest first (a copy).
func (r *Ring) Frames() []Frame {
	out := make([]Frame, r.Len())
	for i := range out {
		out[i] = r.At(i)
	}
	return out
}

// WriteCSV writes the retained frames as CSV: a `#` comment line with
// the retention accounting (so silent frame drops are visible in sweep
// output without parsing every row), then CSVHeader and one row per
// frame, oldest first. CSV consumers should skip `#` lines
// (encoding/csv: Reader.Comment = '#').
func (r *Ring) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# pushed=%d retained=%d dropped=%d\n",
		r.Pushed(), r.Len(), r.Dropped()); err != nil {
		return err
	}
	if _, err := io.WriteString(w, CSVHeader()+"\n"); err != nil {
		return err
	}
	for i := 0; i < r.Len(); i++ {
		f := r.At(i)
		if _, err := io.WriteString(w, f.CSVRecord()+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// ringJSON is the WriteJSON document shape. Pushed/Retained/Dropped
// expose the ring's retention accounting so a consumer can tell a
// complete export from a truncated one at a glance.
type ringJSON struct {
	Pushed   int     `json:"pushed_frames"`
	Retained int     `json:"retained_frames"`
	Dropped  int     `json:"dropped_frames"`
	Frames   []Frame `json:"frames"`
}

// WriteJSON writes the retained frames (with per-cluster breakdowns)
// as one indented JSON document.
func (r *Ring) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ringJSON{
		Pushed:   r.Pushed(),
		Retained: r.Len(),
		Dropped:  r.Dropped(),
		Frames:   r.Frames(),
	})
}
