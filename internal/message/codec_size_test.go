package message

import (
	"bytes"
	"testing"

	"padres/internal/predicate"
)

// Size regression tests for the compact envelope codec. The previous gob
// codec re-sent type descriptors with every nested Filter value, so a
// two-predicate subscription cost several hundred bytes on the wire. These
// budgets pin the compact frames; a failure here means descriptor-style
// bloat crept back into the codec.

func TestCodecFrameSizeBudgets(t *testing.T) {
	f := predicate.MustParse("[class,=,'stock'],[price,>,100]")
	cases := []struct {
		name string
		env  Envelope
		max  int
	}{
		{"publish", Envelope{From: "b1", Lamport: 42, Epoch: 3, Seq: 7, Msg: Publish{
			ID: "p1", Client: "c1", Event: predicate.Event{
				"class": predicate.String("stock"),
				"price": predicate.Number(150),
			}}}, 128},
		{"subscribe", Envelope{From: "b1", Msg: Subscribe{ID: "s1", Client: "c1", Filter: f}}, 128},
		{"advertise", Envelope{From: "b1", Msg: Advertise{ID: "a1", Client: "c1", Filter: f}}, 128},
		{"unsubscribe", Envelope{From: "b1", Msg: Unsubscribe{ID: "s1", Client: "c1"}}, 64},
		{"moveack", Envelope{From: "b1", Msg: MoveAck{MoveHeader: MoveHeader{Tx: "tx1", Client: "c1", Source: "b1", Target: "b7"}}}, 96},
	}
	for _, tc := range cases {
		data, err := Marshal(tc.env)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(data) > tc.max {
			t.Errorf("%s frame is %d bytes, budget %d", tc.name, len(data), tc.max)
		}
	}
}

// TestCodecEncodeDeterministic pins two properties gob could not give us:
// repeated encodes of the same envelope are byte-identical, and a stream of
// N equal envelopes costs exactly N times one frame — no per-stream state,
// no amortized descriptors, so frame sizes observed in tests hold on every
// connection.
func TestCodecEncodeDeterministic(t *testing.T) {
	f := predicate.MustParse("[class,=,'stock'],[price,>,100]")
	env := Envelope{From: "b1", Msg: Subscribe{ID: "s1", Client: "c1", Filter: f}}

	one, err := Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	two, err := Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one, two) {
		t.Fatal("repeated Marshal of the same envelope differs")
	}

	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	const n = 10
	for i := 0; i < n; i++ {
		if err := enc.Encode(env); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() != n*len(one) {
		t.Fatalf("stream of %d envelopes is %d bytes, want %d (no per-stream overhead)",
			n, buf.Len(), n*len(one))
	}
}
