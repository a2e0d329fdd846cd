package journal

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

func TestClockTickAndMerge(t *testing.T) {
	var c Clock
	if got := c.Tick(); got != 1 {
		t.Fatalf("first tick = %d, want 1", got)
	}
	if got := c.Tick(); got != 2 {
		t.Fatalf("second tick = %d, want 2", got)
	}
	// Merge with a remote stamp ahead of us: max(2, 10) + 1.
	if got := c.Merge(10); got != 11 {
		t.Fatalf("merge(10) = %d, want 11", got)
	}
	// Merge with a remote stamp behind us: max(11, 3) + 1.
	if got := c.Merge(3); got != 12 {
		t.Fatalf("merge(3) = %d, want 12", got)
	}
	if got := c.Now(); got != 12 {
		t.Fatalf("now = %d, want 12", got)
	}
}

func TestClockConcurrent(t *testing.T) {
	var c Clock
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Tick()
				c.Merge(seed + uint64(i))
			}
		}(uint64(w * each))
	}
	wg.Wait()
	// Every Tick and Merge advances by at least one.
	if got := c.Now(); got < workers*each*2 {
		t.Fatalf("clock = %d, want >= %d", got, workers*each*2)
	}
}

func TestJournalRingWrap(t *testing.T) {
	j := New(4)
	for i := 1; i <= 6; i++ {
		j.Add(Record{Site: "s", Cat: CatBroker, Kind: KindDispatch, Ref: fmt.Sprintf("m%d", i)})
	}
	if j.Len() != 4 {
		t.Fatalf("len = %d, want 4", j.Len())
	}
	if j.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", j.Dropped())
	}
	snap := j.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	for i, want := range []string{"m3", "m4", "m5", "m6"} {
		if snap[i].Ref != want {
			t.Errorf("snapshot[%d].Ref = %s, want %s", i, snap[i].Ref, want)
		}
		if snap[i].Seq != uint64(i+3) {
			t.Errorf("snapshot[%d].Seq = %d, want %d", i, snap[i].Seq, i+3)
		}
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Add(Record{})
	j.BeginRun("x")
	if j.Enabled() || j.Len() != 0 || j.Cap() != 0 || j.Snapshot() != nil {
		t.Fatal("nil journal must be inert")
	}
	if c := j.ClockOf("s"); c != nil {
		t.Fatal("nil journal must return nil clock")
	}
	if err := j.CloseSink(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalRuns(t *testing.T) {
	j := New(16)
	r1 := j.BeginRun("proto=a")
	j.Add(Record{Site: "b1", Cat: CatBroker, Kind: KindDispatch})
	r2 := j.BeginRun("proto=b")
	j.Add(Record{Site: "b1", Cat: CatBroker, Kind: KindDispatch})
	if r1 != 1 || r2 != 2 {
		t.Fatalf("runs = %d, %d", r1, r2)
	}
	snap := j.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("len = %d", len(snap))
	}
	if snap[0].Kind != KindRunConfig || snap[0].Detail != "proto=a" {
		t.Fatalf("first record = %+v", snap[0])
	}
	if snap[1].Run != 1 || snap[3].Run != 2 {
		t.Fatalf("run stamps = %d, %d", snap[1].Run, snap[3].Run)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	j := New(16)
	var buf bytes.Buffer
	j.SinkWriter(&buf)
	j.BeginRun("test")
	j.Add(Record{Site: "b1", Cat: CatLink, Kind: KindLinkSend, Lamport: 7, From: "b1", To: "b2", Ref: "p1", Tx: "x1", Client: "c1", Detail: "d"})
	if err := j.CloseSink(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	got, want := recs[1], j.Snapshot()[1]
	// JSON drops the monotonic clock reading, so wall times compare with
	// Equal and everything else structurally.
	if !got.Wall.Equal(want.Wall) {
		t.Fatalf("wall mismatch: %v != %v", got.Wall, want.Wall)
	}
	got.Wall = want.Wall
	if got != want {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestSinkToFile(t *testing.T) {
	j := New(4)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := j.SinkTo(path); err != nil {
		t.Fatal(err)
	}
	// More records than the ring holds: the file must keep all of them.
	for i := 0; i < 10; i++ {
		j.Add(Record{Site: "s", Cat: CatBroker, Kind: KindDispatch})
	}
	if err := j.CloseSink(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("file records = %d, want 10", len(recs))
	}
}

func TestSortCausal(t *testing.T) {
	recs := []Record{
		{Run: 2, Lamport: 1, Seq: 10},
		{Run: 1, Lamport: 5, Seq: 3},
		{Run: 1, Lamport: 5, Seq: 2},
		{Run: 1, Lamport: 2, Seq: 9},
	}
	SortCausal(recs)
	want := []struct {
		run     int64
		lamport uint64
		seq     uint64
	}{{1, 2, 9}, {1, 5, 2}, {1, 5, 3}, {2, 1, 10}}
	for i, w := range want {
		if recs[i].Run != w.run || recs[i].Lamport != w.lamport || recs[i].Seq != w.seq {
			t.Fatalf("order[%d] = %+v, want %+v", i, recs[i], w)
		}
	}
}

func TestJournalConcurrentAppend(t *testing.T) {
	j := New(1024)
	tap := j.Subscribe(8 * 500)
	var sink bytes.Buffer
	j.SinkWriter(&sink)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(site string) {
			defer wg.Done()
			c := j.ClockOf(site)
			for i := 0; i < 500; i++ {
				j.Add(Record{Site: site, Cat: CatBroker, Kind: KindDispatch, Lamport: c.Tick()})
			}
		}(fmt.Sprintf("b%d", w))
	}
	wg.Wait()
	if j.Len() != 1024 {
		t.Fatalf("len = %d, want full ring", j.Len())
	}
	if got := j.Dropped(); got != 8*500-1024 {
		t.Fatalf("dropped = %d, want %d", got, 8*500-1024)
	}
	// Seq values must be strictly increasing in the snapshot, and the tap
	// and the sink must see every record in Seq order.
	increasing := func(what string, recs []Record) {
		t.Helper()
		for i := 1; i < len(recs); i++ {
			if recs[i].Seq <= recs[i-1].Seq {
				t.Fatalf("%s: seq not increasing at %d: %d then %d", what, i, recs[i-1].Seq, recs[i].Seq)
			}
		}
	}
	increasing("ring", j.Snapshot())
	tap.Close()
	var tapped []Record
	for r := range tap.C() {
		tapped = append(tapped, r)
	}
	if len(tapped) != 8*500 {
		t.Fatalf("tap saw %d records, want %d", len(tapped), 8*500)
	}
	increasing("tap", tapped)
	if err := j.CloseSink(); err != nil {
		t.Fatal(err)
	}
	sunk, err := ReadJSONL(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(sunk) != 8*500 {
		t.Fatalf("sink holds %d records, want %d", len(sunk), 8*500)
	}
	increasing("sink", sunk)
}
