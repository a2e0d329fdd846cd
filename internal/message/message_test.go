package message

import (
	"io"
	"strings"
	"sync"
	"testing"

	"padres/internal/predicate"
)

func TestKindString(t *testing.T) {
	if KindAdvertise.String() != "advertise" {
		t.Errorf("KindAdvertise.String() = %q", KindAdvertise.String())
	}
	if Kind(99).String() != "kind(99)" {
		t.Errorf("unknown kind rendering = %q", Kind(99).String())
	}
}

func TestKindIsControl(t *testing.T) {
	routing := []Kind{KindAdvertise, KindUnadvertise, KindSubscribe, KindUnsubscribe, KindPublish}
	for _, k := range routing {
		if k.IsControl() {
			t.Errorf("%v should not be control", k)
		}
	}
	control := []Kind{KindMoveNegotiate, KindMoveApprove, KindMoveReject, KindMoveState, KindMoveAck, KindMoveAbort}
	for _, k := range control {
		if !k.IsControl() {
			t.Errorf("%v should be control", k)
		}
	}
}

func TestMessageKindsAndTags(t *testing.T) {
	f := predicate.MustParse("[x,>,1]")
	hdr := MoveHeader{Tx: "tx1", Client: "c1", Source: "b1", Target: "b2"}
	tests := []struct {
		msg  Message
		kind Kind
		tag  TxID
	}{
		{Advertise{ID: "a1", Client: "c1", Filter: f, TxTag: "t"}, KindAdvertise, "t"},
		{Unadvertise{ID: "a1", Client: "c1"}, KindUnadvertise, ""},
		{Subscribe{ID: "s1", Client: "c1", Filter: f}, KindSubscribe, ""},
		{Unsubscribe{ID: "s1", Client: "c1", TxTag: "t2"}, KindUnsubscribe, "t2"},
		{Publish{ID: "p1", Client: "c1", Event: predicate.Event{"x": predicate.Number(2)}}, KindPublish, ""},
		{MoveNegotiate{MoveHeader: hdr}, KindMoveNegotiate, "tx1"},
		{MoveApprove{MoveHeader: hdr}, KindMoveApprove, "tx1"},
		{MoveReject{MoveHeader: hdr}, KindMoveReject, "tx1"},
		{MoveState{MoveHeader: hdr}, KindMoveState, "tx1"},
		{MoveAck{MoveHeader: hdr}, KindMoveAck, "tx1"},
		{MoveAbort{MoveHeader: hdr}, KindMoveAbort, "tx1"},
	}
	for _, tt := range tests {
		if got := tt.msg.Kind(); got != tt.kind {
			t.Errorf("Kind() = %v, want %v", got, tt.kind)
		}
		if got := tt.msg.Tag(); got != tt.tag {
			t.Errorf("%v Tag() = %q, want %q", tt.kind, got, tt.tag)
		}
	}
}

func TestDest(t *testing.T) {
	hdr := MoveHeader{Tx: "tx1", Client: "c1", Source: "src", Target: "tgt"}
	tests := []struct {
		msg  Message
		dest BrokerID
		ok   bool
	}{
		{MoveNegotiate{MoveHeader: hdr}, "tgt", true},
		{MoveState{MoveHeader: hdr}, "tgt", true},
		{MoveApprove{MoveHeader: hdr}, "src", true},
		{MoveReject{MoveHeader: hdr}, "src", true},
		{MoveAck{MoveHeader: hdr}, "src", true},
		{MoveAbort{MoveHeader: hdr}, "", false}, // direction tracked by sender
		{Publish{ID: "p"}, "", false},
	}
	for _, tt := range tests {
		dest, ok := Dest(tt.msg)
		if dest != tt.dest || ok != tt.ok {
			t.Errorf("Dest(%v) = (%q, %v), want (%q, %v)", tt.msg.Kind(), dest, ok, tt.dest, tt.ok)
		}
	}
}

func TestIDGen(t *testing.T) {
	g := NewIDGen("c7")
	first := g.Next("p")
	second := g.Next("s")
	if first != "c7-p1" {
		t.Errorf("first id = %q, want c7-p1", first)
	}
	if second != "c7-s2" {
		t.Errorf("second id = %q, want c7-s2", second)
	}
}

func TestIDGenConcurrent(t *testing.T) {
	g := NewIDGen("x")
	const n = 100
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = g.Next("m")
		}(i)
	}
	wg.Wait()
	seen := make(map[string]bool, n)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
		if !strings.HasPrefix(id, "x-m") {
			t.Fatalf("bad id format %q", id)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	f := predicate.MustParse("[class,=,'stock'],[price,>,100]")
	msgs := []Message{
		Advertise{ID: "a1", Client: "c1", Filter: f},
		Subscribe{ID: "s1", Client: "c2", Filter: f, TxTag: "tx9"},
		Unsubscribe{ID: "s1", Client: "c2"},
		Unadvertise{ID: "a1", Client: "c1"},
		Publish{ID: "p1", Client: "c1", Event: predicate.Event{
			"class": predicate.String("stock"),
			"price": predicate.Number(150),
		}},
		MoveNegotiate{
			MoveHeader: MoveHeader{Tx: "tx1", Client: "c1", Source: "b1", Target: "b7"},
			Subs:       []SubEntry{{ID: "s1", Filter: f}},
			Advs:       []AdvEntry{{ID: "a1", Filter: f}},
		},
		MoveApprove{MoveHeader: MoveHeader{Tx: "tx1", Client: "c1", Source: "b1", Target: "b7"}, Reconfigure: true},
		MoveReject{MoveHeader: MoveHeader{Tx: "tx1"}, Reason: "overloaded"},
		MoveState{MoveHeader: MoveHeader{Tx: "tx1"}, Buffered: []Publish{{ID: "p2", Client: "c9"}}, AppState: []byte("state")},
		MoveAck{MoveHeader: MoveHeader{Tx: "tx1"}},
		MoveAbort{MoveHeader: MoveHeader{Tx: "tx1"}, Reason: "timeout"},
	}
	for _, m := range msgs {
		data, err := Marshal(Envelope{From: "n1", Msg: m})
		if err != nil {
			t.Fatalf("Marshal(%v): %v", m.Kind(), err)
		}
		env, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("Unmarshal(%v): %v", m.Kind(), err)
		}
		if env.From != "n1" {
			t.Errorf("From = %q, want n1", env.From)
		}
		if env.Msg.Kind() != m.Kind() {
			t.Errorf("round trip kind = %v, want %v", env.Msg.Kind(), m.Kind())
		}
	}
}

// TestCodecReplicationRoundTrip pins the wire frames of the replication
// message kinds field by field: these cross broker boundaries in TCP
// deployments, so every field must survive the codec exactly.
func TestCodecReplicationRoundTrip(t *testing.T) {
	hdr := MoveHeader{Tx: "tx7", Client: "c3", Source: "b2", Target: "b14"}
	roundTrip := func(m Message) Message {
		t.Helper()
		data, err := Marshal(Envelope{From: "b2", Msg: m})
		if err != nil {
			t.Fatalf("Marshal(%v): %v", m.Kind(), err)
		}
		env, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("Unmarshal(%v): %v", m.Kind(), err)
		}
		return env.Msg
	}

	rd := ReplicateDecision{
		MoveHeader: hdr, Outcome: "committed", Gen: 3,
		Origin: "b14", Replica: "b9", Hint: "b5", Release: true,
	}
	if got, ok := roundTrip(rd).(ReplicateDecision); !ok || got != rd {
		t.Fatalf("ReplicateDecision round trip = %+v, want %+v", got, rd)
	}
	ra := ReplicaAck{
		MoveHeader: hdr, Gen: 2, Replica: "b9", To: "b14",
		Outcome: "aborted", Grant: true,
	}
	if got, ok := roundTrip(ra).(ReplicaAck); !ok || got != ra {
		t.Fatalf("ReplicaAck round trip = %+v, want %+v", got, ra)
	}
	lc := LeaseClaim{MoveHeader: hdr, Gen: 5, Claimant: "b9", Replica: "b4"}
	if got, ok := roundTrip(lc).(LeaseClaim); !ok || got != lc {
		t.Fatalf("LeaseClaim round trip = %+v, want %+v", got, lc)
	}
	sr := StandbyResolve{MoveHeader: hdr, Outcome: "committed", Gen: 5, Claimant: "b9", To: "b2"}
	if got, ok := roundTrip(sr).(StandbyResolve); !ok || got != sr {
		t.Fatalf("StandbyResolve round trip = %+v, want %+v", got, sr)
	}
	// The extended recovery/acknowledgement fields ride existing kinds.
	mq := MoveQuery{MoveHeader: hdr, From: "b2", At: "b9"}
	if got, ok := roundTrip(mq).(MoveQuery); !ok || got != mq {
		t.Fatalf("MoveQuery round trip = %+v, want %+v", got, mq)
	}
	ma := MoveAck{MoveHeader: hdr, Reconfigure: true, Gen: 4}
	if got, ok := roundTrip(ma).(MoveAck); !ok || got != ma {
		t.Fatalf("MoveAck round trip = %+v, want %+v", got, ma)
	}
}

func TestCodecFilterContent(t *testing.T) {
	f := predicate.MustParse("[class,=,'stock'],[price,>,100]")
	data, err := Marshal(Envelope{From: "b1", Msg: Subscribe{ID: "s1", Client: "c1", Filter: f}})
	if err != nil {
		t.Fatal(err)
	}
	env, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	sub, ok := env.Msg.(Subscribe)
	if !ok {
		t.Fatalf("decoded type %T, want Subscribe", env.Msg)
	}
	if !sub.Filter.Equal(f) {
		t.Errorf("filter after round trip = %s, want %s", sub.Filter, f)
	}
	e := predicate.MustParseEvent("[class,'stock'],[price,150]")
	if !sub.Filter.Matches(e) {
		t.Error("decoded filter lost matching semantics")
	}
}

func TestCodecStream(t *testing.T) {
	r, w := io.Pipe()
	enc := NewEncoder(w)
	dec := NewDecoder(r)
	go func() {
		for i := 0; i < 3; i++ {
			_ = enc.Encode(Envelope{From: "b1", Msg: Publish{ID: PubID("p" + string(rune('0'+i)))}})
		}
		_ = w.Close()
	}()
	count := 0
	for {
		_, err := dec.Decode()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		count++
	}
	if count != 3 {
		t.Errorf("decoded %d envelopes, want 3", count)
	}
}

// TestCodecLamportPropagation checks that the sender's Lamport stamp
// survives the wire codec exactly: causal ordering across processes
// depends on the receiver merging the stamp the sender actually wrote.
func TestCodecLamportPropagation(t *testing.T) {
	env := Envelope{
		From:    "b1",
		Msg:     Publish{ID: "p1", Client: "c1"},
		Lamport: 42,
		Epoch:   3,
	}
	data, err := Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Lamport != 42 {
		t.Errorf("Lamport after round trip = %d, want 42", got.Lamport)
	}
	if got.Epoch != 3 {
		t.Errorf("Epoch after round trip = %d, want 3", got.Epoch)
	}

	// A stream of envelopes keeps each stamp with its own message.
	r, w := io.Pipe()
	enc := NewEncoder(w)
	go func() {
		for _, lam := range []uint64{7, 9, 1000} {
			_ = enc.Encode(Envelope{From: "b1", Msg: Publish{ID: "p"}, Lamport: lam})
		}
		_ = w.Close()
	}()
	dec := NewDecoder(r)
	for _, want := range []uint64{7, 9, 1000} {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if got.Lamport != want {
			t.Errorf("streamed Lamport = %d, want %d", got.Lamport, want)
		}
	}
}
