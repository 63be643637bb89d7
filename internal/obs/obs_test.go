package obs

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"clustersmt/internal/stats"
)

func frameAt(i int, interval int64) Frame {
	f := Frame{
		Index:     i,
		Start:     int64(i) * interval,
		End:       int64(i+1) * interval,
		Cycles:    interval,
		Committed: uint64(100 * (i + 1)),
		Running:   3,
	}
	f.Slots[stats.Useful] = float64(i)
	f.Mem.L1Hits = uint64(10 * i)
	f.Mem.L1Misses = uint64(i)
	return f
}

func TestRingRetainsInOrder(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 3; i++ {
		r.Push(frameAt(i, 100))
	}
	if r.Len() != 3 || r.Pushed() != 3 || r.Dropped() != 0 {
		t.Fatalf("len=%d pushed=%d dropped=%d, want 3/3/0", r.Len(), r.Pushed(), r.Dropped())
	}
	for i, f := range r.Frames() {
		if f.Index != i {
			t.Errorf("frame %d has index %d", i, f.Index)
		}
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Push(frameAt(i, 100))
	}
	if r.Len() != 4 || r.Pushed() != 10 || r.Dropped() != 6 {
		t.Fatalf("len=%d pushed=%d dropped=%d, want 4/10/6", r.Len(), r.Pushed(), r.Dropped())
	}
	fs := r.Frames()
	for i, f := range fs {
		if want := 6 + i; f.Index != want {
			t.Errorf("retained frame %d has index %d, want %d", i, f.Index, want)
		}
	}
}

func TestRingDefaultCap(t *testing.T) {
	if got := NewRing(0).Cap(); got != DefaultRingCap {
		t.Fatalf("NewRing(0).Cap() = %d, want %d", got, DefaultRingCap)
	}
}

func TestCSVSchema(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 5; i++ {
		r.Push(frameAt(i, 1000))
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	// The first line is the retention-accounting comment.
	if !strings.HasPrefix(buf.String(), "# pushed=5 retained=5 dropped=0\n") {
		t.Fatalf("missing retention comment, got %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	rd := csv.NewReader(&buf)
	rd.Comment = '#'
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("output is not parseable CSV: %v", err)
	}
	if len(recs) != 6 {
		t.Fatalf("got %d CSV records, want header + 5 rows", len(recs))
	}
	header := recs[0]
	wantCols := len(strings.Split(CSVHeader(), ","))
	for i, rec := range recs {
		if len(rec) != wantCols {
			t.Errorf("record %d has %d columns, want %d", i, len(rec), wantCols)
		}
	}
	// Every slot category must have its own column, in stats order.
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		want := "slots_" + c.String()
		if got := header[8+int(c)]; got != want {
			t.Errorf("header column %d = %q, want %q", 8+int(c), got, want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := NewRing(2)
	for i := 0; i < 5; i++ {
		f := frameAt(i, 1000)
		f.Clusters = []ClusterSlots{{Chip: 0, Cluster: i}}
		r.Push(f)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Pushed   int     `json:"pushed_frames"`
		Retained int     `json:"retained_frames"`
		Dropped  int     `json:"dropped_frames"`
		Frames   []Frame `json:"frames"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not parseable JSON: %v", err)
	}
	if doc.Dropped != 3 || len(doc.Frames) != 2 {
		t.Fatalf("dropped=%d frames=%d, want 3/2", doc.Dropped, len(doc.Frames))
	}
	if doc.Pushed != 5 || doc.Retained != 2 {
		t.Fatalf("pushed=%d retained=%d, want 5/2", doc.Pushed, doc.Retained)
	}
	if doc.Frames[0].Index != 3 || doc.Frames[0].Clusters[0].Cluster != 3 {
		t.Errorf("oldest retained frame = %+v, want index 3", doc.Frames[0])
	}
}
