package main

import (
	"fmt"
	"testing"

	"padres/internal/message"
	"padres/internal/predicate"
	"padres/internal/workload"
)

// oracleFixture is three clients over one class: client 0 holds a covered
// block's root, client 1 a point subscription inside it, client 2 a block
// far away; publications hit the root, the point, and nothing.
func oracleFixture() (*oracle, []sentPub) {
	block0 := workload.Subscriptions(workload.Covered, "c", 0)
	subs := []map[message.SubID]*predicate.Filter{
		{"s0": block0[0]},
		{"s1": block0[1]}, // x == 10
		{"s2": workload.Subscriptions(workload.Covered, "c", 7)[0]},
	}
	pubs := []sentPub{
		{id: "p-root", ev: workload.Publication("c", 55)},
		{id: "p-point", ev: workload.Publication("c", 10)},
		{id: "p-none", ev: workload.Publication("c", 5000)},
		{id: "p-edge", ev: workload.Publication("c", 700)},
	}
	return newOracle(subs), pubs
}

// exact is the delivery set a correct run produces for the fixture.
func exact() []delivery {
	return []delivery{
		{client: 0, id: "p-root"},
		{client: 0, id: "p-point"},
		{client: 1, id: "p-point"},
		{client: 2, id: "p-edge"},
	}
}

func TestOracleAcceptsExactDelivery(t *testing.T) {
	or, pubs := oracleFixture()
	v := or.check(pubs, exact())
	if v.expected != 4 || v.failures() != 0 {
		t.Fatalf("exact delivery: expected %d, missing %d, duplicates %d, extra %d",
			v.expected, v.missing, v.duplicates, v.extra)
	}
}

func TestOracleCatchesMissingNotification(t *testing.T) {
	or, pubs := oracleFixture()
	got := exact()[1:] // client 0 never dequeues p-root
	v := or.check(pubs, got)
	if v.missing != 1 || v.duplicates != 0 || v.extra != 0 {
		t.Fatalf("injected loss: missing %d, duplicates %d, extra %d", v.missing, v.duplicates, v.extra)
	}
}

func TestOracleCatchesDuplicateNotification(t *testing.T) {
	or, pubs := oracleFixture()
	got := append(exact(), delivery{client: 1, id: "p-point"})
	v := or.check(pubs, got)
	if v.duplicates != 1 || v.missing != 0 || v.extra != 0 {
		t.Fatalf("injected duplicate: missing %d, duplicates %d, extra %d", v.missing, v.duplicates, v.extra)
	}
}

func TestOracleCatchesExtraNotification(t *testing.T) {
	or, pubs := oracleFixture()
	got := append(exact(), delivery{client: 2, id: "p-root"}, delivery{client: 1, id: "p-unknown"})
	v := or.check(pubs, got)
	if v.extra != 2 || v.missing != 0 || v.duplicates != 0 {
		t.Fatalf("injected extras: missing %d, duplicates %d, extra %d", v.missing, v.duplicates, v.extra)
	}
}

// TestOracleMatchesBruteForce checks the bucketed candidate search against
// Filter.Matches over every subscription, on a seeded population.
func TestOracleMatchesBruteForce(t *testing.T) {
	subs := make([]map[message.SubID]*predicate.Filter, 20)
	fs := workload.Assign(workload.Random, "c", 400, newRand(3))
	for i, f := range fs {
		if subs[i%20] == nil {
			subs[i%20] = make(map[message.SubID]*predicate.Filter)
		}
		subs[i%20][message.SubID(fmt.Sprintf("s%d", i))] = f
	}
	or := newOracle(subs)
	r := newRand(4)
	var buf []int
	for k := 0; k < 2000; k++ {
		ev := workload.RandomPublication("c", 40, r)
		buf = or.matching(ev, buf)
		got := make(map[int]bool, len(buf))
		for _, c := range buf {
			got[c] = true
		}
		for ci, m := range subs {
			want := false
			for _, f := range m {
				want = want || f.Matches(ev)
			}
			if want != got[ci] {
				t.Fatalf("event %v: client %d oracle=%t brute force=%t", ev, ci, got[ci], want)
			}
		}
	}
}
