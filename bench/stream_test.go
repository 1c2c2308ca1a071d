package main

import "testing"

func TestRequestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		if !w.service() {
			continue
		}
		a, again, other := streamDigest(w, 1, 48), streamDigest(w, 1, 48), streamDigest(w, 2, 48)
		if a != again {
			t.Errorf("%s: same seed, different request stream", w.name)
		}
		if a == other {
			t.Errorf("%s: different seeds, same request stream", w.name)
		}
	}
}

func TestDeltaRequestsCarryTheirBaseDigest(t *testing.T) {
	w, _ := findWorkload("serve-hot")
	rs := newReqStream(w, 1)
	deltas := 0
	for i := 0; i < 200; i++ {
		r := rs.next()
		if r.spec.Delta() != (r.baseDigest != "") {
			t.Fatalf("request %d: delta %v, hint %q", i, r.spec.Delta(), r.baseDigest)
		}
		if r.spec.Delta() {
			deltas++
		}
	}
	if deltas == 0 {
		t.Error("serve-hot generated no delta request in 200")
	}
}
