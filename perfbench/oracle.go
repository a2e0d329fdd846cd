package main

import (
	"math"

	"padres/internal/message"
	"padres/internal/predicate"
)

// The oracle recomputes, by brute force over each client's installed
// subscriptions, which clients must receive each sent publication, and
// compares that with what the clients actually dequeued. It never consults
// the matching index: the only prefilter is a hull bucket derived from each
// filter's own class and x predicates, which can only widen the candidate
// set, and every candidate is decided by Filter.Matches.

// bucketSpan is the x-width of one oracle bucket (the workload block span).
const bucketSpan = 100

// maxBuckets caps how many buckets one filter may occupy before it is
// checked against every publication of its class instead.
const maxBuckets = 64

// sentPub is one publication the run issued.
type sentPub struct {
	id    message.PubID
	ev    predicate.Event
	due   float64 // seconds since the run's epoch
	phase int
}

// delivery is one notification a client dequeued.
type delivery struct {
	client int
	id     message.PubID
	at     float64 // seconds since the run's epoch
}

type subRef struct {
	client int
	f      *predicate.Filter
}

type classIndex struct {
	buckets map[int][]subRef
	always  []subRef
}

// oracle indexes every client's subscriptions for the brute-force check.
type oracle struct {
	byClass map[string]*classIndex
	always  []subRef // filters without a class constraint
	clients int
	mark    []int // per-client stamp, deduplicates a client's several subs
	stamp   int
}

// newOracle indexes the installed subscriptions; subs[i] is client i's
// Subs() snapshot.
func newOracle(subs []map[message.SubID]*predicate.Filter) *oracle {
	o := &oracle{byClass: make(map[string]*classIndex), clients: len(subs), mark: make([]int, len(subs))}
	for ci, m := range subs {
		for _, f := range m {
			o.add(subRef{client: ci, f: f})
		}
	}
	return o
}

func (o *oracle) add(s subRef) {
	class, lo, hi, ok := hull(s.f)
	if !ok {
		o.always = append(o.always, s)
		return
	}
	idx := o.byClass[class]
	if idx == nil {
		idx = &classIndex{buckets: make(map[int][]subRef)}
		o.byClass[class] = idx
	}
	if math.IsInf(lo, 0) || math.IsInf(hi, 0) || hi-lo > maxBuckets*bucketSpan {
		idx.always = append(idx.always, s)
		return
	}
	for b := bucketOf(lo); b <= bucketOf(hi); b++ {
		idx.buckets[b] = append(idx.buckets[b], s)
	}
}

func bucketOf(x float64) int { return int(math.Floor(x / bucketSpan)) }

// hull extracts a filter's class equality and the closed hull of its x
// constraints. Constraints it does not understand are ignored, which only
// widens the hull. ok is false when the filter names no class.
func hull(f *predicate.Filter) (class string, lo, hi float64, ok bool) {
	lo, hi = math.Inf(-1), math.Inf(1)
	for _, p := range f.Predicates() {
		switch {
		case p.Attr == "class" && p.Op == predicate.OpEq && p.Value.Kind() == predicate.KindString:
			class, ok = p.Value.Str(), true
		case p.Attr == "x" && p.Value.Kind() == predicate.KindNumber:
			v := p.Value.Number64()
			switch p.Op {
			case predicate.OpEq:
				lo, hi = math.Max(lo, v), math.Min(hi, v)
			case predicate.OpGe, predicate.OpGt:
				lo = math.Max(lo, v)
			case predicate.OpLe, predicate.OpLt:
				hi = math.Min(hi, v)
			}
		}
	}
	return class, lo, hi, ok
}

// matching returns the clients with at least one subscription matching ev,
// decided by Filter.Matches. The slice is reused by the next call.
func (o *oracle) matching(ev predicate.Event, out []int) []int {
	out = out[:0]
	o.stamp++
	try := func(refs []subRef) {
		for _, s := range refs {
			if o.mark[s.client] == o.stamp {
				continue
			}
			if s.f.Matches(ev) {
				o.mark[s.client] = o.stamp
				out = append(out, s.client)
			}
		}
	}
	try(o.always)
	cv, hasClass := ev["class"]
	if !hasClass || cv.Kind() != predicate.KindString {
		for _, idx := range o.byClass {
			try(idx.always)
			for _, refs := range idx.buckets {
				try(refs)
			}
		}
		return out
	}
	idx := o.byClass[cv.Str()]
	if idx == nil {
		return out
	}
	try(idx.always)
	if xv, ok := ev["x"]; ok && xv.Kind() == predicate.KindNumber {
		try(idx.buckets[bucketOf(xv.Number64())])
		// A filter whose hull ends exactly on a bucket edge sits in both
		// buckets; an event on the edge is checked against both.
		if x := xv.Number64(); x == math.Floor(x/bucketSpan)*bucketSpan {
			try(idx.buckets[bucketOf(x)-1])
		}
		return out
	}
	for _, refs := range idx.buckets {
		try(refs)
	}
	return out
}

// verdict is the oracle's comparison of expected and actual deliveries.
type verdict struct {
	expected   int64
	missing    int64
	duplicates int64
	extra      int64
	// latencies are dequeue minus due, in ms, of every expected delivery
	// that arrived, grouped by the publication's phase.
	latencies map[int][]float64
}

func (v verdict) failures() int64 { return v.missing + v.duplicates + v.extra }

// check compares deliveries with the brute-force expectation for pubs.
func (o *oracle) check(pubs []sentPub, got []delivery) verdict {
	v := verdict{latencies: make(map[int][]float64)}
	type key struct {
		client int
		id     message.PubID
	}
	recv := make(map[key][]float64, len(got))
	for _, d := range got {
		k := key{d.client, d.id}
		recv[k] = append(recv[k], d.at)
	}
	var buf []int
	for _, p := range pubs {
		buf = o.matching(p.ev, buf)
		for _, c := range buf {
			v.expected++
			k := key{c, p.id}
			ats := recv[k]
			if len(ats) == 0 {
				v.missing++
				continue
			}
			v.duplicates += int64(len(ats) - 1)
			v.latencies[p.phase] = append(v.latencies[p.phase], (ats[0]-p.due)*1000)
			delete(recv, k)
		}
	}
	for _, ats := range recv {
		v.extra += int64(len(ats))
	}
	return v
}
