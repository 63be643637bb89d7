package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	if !ValidTraceID(id) {
		t.Fatalf("NewTraceID returned invalid id %q", id)
	}
	if id2 := NewTraceID(); id2 == id {
		t.Fatal("two trace IDs collided")
	}
	ctx := WithTraceID(context.Background(), id)
	if got := TraceIDFrom(ctx); got != id {
		t.Fatalf("TraceIDFrom = %q, want %q", got, id)
	}
	if got := TraceIDFrom(context.Background()); got != "" {
		t.Fatalf("empty context: got %q", got)
	}
	if ctx2 := WithTraceID(context.Background(), ""); TraceIDFrom(ctx2) != "" {
		t.Fatal("empty id should not be stored")
	}
}

func TestValidTraceID(t *testing.T) {
	for _, ok := range []string{"a", "Abc-123_xyz", strings.Repeat("f", 64)} {
		if !ValidTraceID(ok) {
			t.Errorf("ValidTraceID(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", strings.Repeat("f", 65), "has space", "dot.dot", "semi;colon", "née"} {
		if ValidTraceID(bad) {
			t.Errorf("ValidTraceID(%q) = true, want false", bad)
		}
	}
}

func TestSpanRing(t *testing.T) {
	r := NewSpanRing(4)
	r.Record(Span{Name: "anon"}) // no trace ID: dropped
	if r.Len() != 0 {
		t.Fatal("span without trace ID retained")
	}
	for i := 0; i < 6; i++ {
		id := "t1"
		if i%2 == 1 {
			id = "t2"
		}
		r.Record(Span{TraceID: id, Name: fmt.Sprintf("s%d", i), StartUS: int64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", r.Dropped())
	}
	// s0, s1 were overwritten; t1 retains s2, s4 in order.
	got := r.ByTrace("t1")
	if len(got) != 2 || got[0].Name != "s2" || got[1].Name != "s4" {
		t.Fatalf("ByTrace(t1) = %+v", got)
	}
	if r.ByTrace("missing") != nil {
		t.Fatal("ByTrace on unknown id should be empty")
	}
}

func TestSpanRingConcurrent(t *testing.T) {
	r := NewSpanRing(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("t%d", w)
			for i := 0; i < 200; i++ {
				r.Record(Span{TraceID: id, Name: "s", StartUS: int64(i)})
				r.ByTrace(id)
				r.Dropped()
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != 64 {
		t.Fatalf("Len = %d, want 64", r.Len())
	}
}

// TestWriteChromeTrace checks the export is valid JSON in Chrome
// trace_event array form: one process_name metadata record, ph "X"
// complete events in start order on its pid, and trace_id in args.
func TestWriteChromeTrace(t *testing.T) {
	spans := []Span{
		{TraceID: "t1", Name: "simulate", StartUS: 200, DurUS: 50},
		{TraceID: "t1", Name: "submit", StartUS: 100, DurUS: 0,
			Attrs: map[string]string{"job": "j-1"}},
	}
	var b strings.Builder
	if err := WriteChromeTrace(&b, "clusterd", spans); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, b.String())
	}
	var meta, complete []map[string]any
	for _, e := range events {
		switch e["ph"] {
		case "M":
			meta = append(meta, e)
		case "X":
			complete = append(complete, e)
		default:
			t.Errorf("unexpected ph %v", e["ph"])
		}
	}
	if len(meta) != 1 || meta[0]["args"].(map[string]any)["name"] != "clusterd" {
		t.Fatalf("process_name records = %v, want one naming clusterd", meta)
	}
	if len(complete) != 2 {
		t.Fatalf("got %d complete events, want 2", len(complete))
	}
	// Events sorted by start time: submit first despite input order.
	if complete[0]["name"] != "submit" || complete[1]["name"] != "simulate" {
		t.Fatalf("event order: %v, %v", complete[0]["name"], complete[1]["name"])
	}
	if complete[0]["dur"].(float64) < 1 {
		t.Error("zero-duration span should be widened to 1µs")
	}
	args := complete[0]["args"].(map[string]any)
	if args["trace_id"] != "t1" || args["job"] != "j-1" {
		t.Fatalf("args = %v", args)
	}
	for _, e := range complete {
		if e["pid"] != meta[0]["pid"] {
			t.Errorf("span %v on pid %v, process is pid %v", e["name"], e["pid"], meta[0]["pid"])
		}
	}
}
