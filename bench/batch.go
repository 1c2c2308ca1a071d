package main

import (
	"fmt"
	"time"

	mrinverse "repro"
	"repro/internal/obs"
)

// batch is the paper's caller: it hands mrinverse.Invert one matrix at a
// time, rotating over a few seeded inputs, and waits for each inverse.
type batch struct {
	w      workloadSpec
	opts   mrinverse.Options
	inputs []*mrinverse.Matrix
	// first keeps the first result per input: it gets the full residual
	// check once the timed phase is over.
	first []*mrinverse.Matrix
}

func newBatch(w workloadSpec, seed int64) *batch {
	b := &batch{w: w, opts: mrinverse.DefaultOptions(clusterNodes)}
	b.opts.NB = w.nb
	for i := 0; i < batchInputs; i++ {
		b.inputs = append(b.inputs, batchInput(w, seed, i))
	}
	b.first = make([]*mrinverse.Matrix, len(b.inputs))
	return b
}

// batchInput is the i-th seeded input of a batch workload: the paper's
// randomly generated matrix.
func batchInput(w workloadSpec, seed int64, i int) *mrinverse.Matrix {
	return mrinverse.Random(w.n, seed*1000+int64(i))
}

// op runs the i-th operation. With tr and met nil this is exactly
// mrinverse.Invert; otherwise the pipeline records into them and the
// benchmark wraps its own calls in spans. The sampled check runs after
// the clock has stopped.
func (b *batch) op(i int64, tr *obs.Tracer, met *obs.Registry) (opResult, *mrinverse.Report) {
	slot := int(i % int64(len(b.inputs)))
	a := b.inputs[slot]
	root := tr.StartSpan("bench.op", obs.KindPipeline)
	root.SetAttr("id", i)
	call := root.Child("bench.invert", obs.KindOp)
	t0 := time.Now()
	inv, rep, err := mrinverse.InvertObserved(a, b.opts, tr, met)
	d := time.Since(t0)
	call.Finish()

	res := opResult{ms: msOf(d)}
	verify := root.Child("bench.verify", obs.KindOp)
	if err != nil {
		res.failed = err.Error()
	} else {
		res.failed = checkInverse(a, inv, batchTol, false)
		if b.first[slot] == nil {
			b.first[slot] = inv
		}
	}
	verify.Finish()
	root.Finish()
	return res, rep
}

// warm runs the workload's warm-up operations, untimed.
func (b *batch) warm() error {
	for i := 0; i < b.w.warmOps; i++ {
		if res, _ := b.op(int64(i), nil, nil); res.failed != "" {
			return fmt.Errorf("warm-up operation %d: %s", i, res.failed)
		}
	}
	return nil
}

// run is the timed closed loop: one caller, hooks nil.
func (b *batch) run(lim *limit) *phase {
	ph := &phase{}
	b.first = make([]*mrinverse.Matrix, len(b.inputs))
	for {
		i, ok := lim.take()
		if !ok {
			break
		}
		res, _ := b.op(i, nil, nil)
		ph.ops = append(ph.ops, res)
		ph.wall += time.Duration(res.ms * 1e6)
	}
	// Operation s was the first to use input s.
	for slot, why := range b.fullChecks() {
		if why != "" && ph.ops[slot].failed == "" {
			ph.ops[slot].failed = why
		}
	}
	return ph
}

// fullChecks computes the whole residual of the first result per input
// and returns, per input, why it fails ("" when it passes or there is no
// result yet).
func (b *batch) fullChecks() []string {
	why := make([]string, len(b.inputs))
	for slot, inv := range b.first {
		if inv != nil {
			why[slot] = checkInverse(b.inputs[slot], inv, batchTol, true)
		}
	}
	return why
}
