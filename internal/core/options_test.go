package core

import (
	"errors"
	"testing"

	"repro/internal/workload"
)

func TestDepth(t *testing.T) {
	cases := []struct{ n, nb, want int }{
		{100, 100, 0},
		{100, 200, 0},
		{101, 100, 1},
		{200, 100, 1},
		{201, 100, 2},
		{400, 100, 2},
		{1 << 20, 1 << 10, 10},
		// Paper values (Table 3, nb = 3200):
		{20480, 3200, 3},
		{32768, 3200, 4},
		{40960, 3200, 4},
		{102400, 3200, 5},
		{16384, 3200, 3},
	}
	for _, c := range cases {
		if got := Depth(c.n, c.nb); got != c.want {
			t.Errorf("Depth(%d, %d) = %d, want %d", c.n, c.nb, got, c.want)
		}
	}
}

func TestPipelineJobsMatchesTable3(t *testing.T) {
	for _, spec := range workload.Table3 {
		if got := PipelineJobs(spec.Order, workload.PaperNB); got != spec.Jobs {
			t.Errorf("%s (n=%d): PipelineJobs = %d, Table 3 says %d", spec.Name, spec.Order, got, spec.Jobs)
		}
	}
}

func TestLUJobs(t *testing.T) {
	for d, want := range []int{0, 1, 3, 7, 15, 31} {
		if got := luJobs(d); got != want {
			t.Errorf("luJobs(%d) = %d, want %d", d, got, want)
		}
	}
}

func TestLUJobCountAsymmetricTrees(t *testing.T) {
	// n = 51, nb = 25: A1 has order 26 (one more level), B has order 25
	// (leaf). Exact count is 2 jobs, not the uniform-depth 2^2 - 1 = 3.
	if got := luJobCount(51, 25); got != 2 {
		t.Fatalf("luJobCount(51, 25) = %d, want 2", got)
	}
	// Symmetric power-of-two case agrees with the closed form.
	if got := luJobCount(64, 8); got != luJobs(Depth(64, 8)) {
		t.Fatalf("luJobCount(64, 8) = %d, want %d", got, luJobs(Depth(64, 8)))
	}
	if got := luJobCount(16, 32); got != 0 {
		t.Fatalf("luJobCount(16, 32) = %d", got)
	}
}

func TestSeparateFileCount(t *testing.T) {
	// Paper example (Section 6.1): n = 2^15, nb = 2048, m0 = 64 gives
	// d = 4 and N(d) = 496.
	if got := separateFileCount(4, 64); got != 496 {
		t.Fatalf("N(4, 64) = %d, want 496", got)
	}
	if got := separateFileCount(0, 64); got != 1 {
		t.Fatalf("N(0) = %d, want 1", got)
	}
}

func TestFactorPair(t *testing.T) {
	cases := []struct{ m0, f1, f2 int }{
		{1, 1, 1},
		{2, 2, 1},
		{4, 2, 2},
		{6, 3, 2},
		{8, 4, 2},
		{12, 4, 3},
		{16, 4, 4},
		{64, 8, 8}, // paper's Section 6.2 example
		{7, 7, 1},
		{36, 6, 6},
	}
	for _, c := range cases {
		f1, f2 := FactorPair(c.m0)
		if f1 != c.f1 || f2 != c.f2 {
			t.Errorf("FactorPair(%d) = (%d, %d), want (%d, %d)", c.m0, f1, f2, c.f1, c.f2)
		}
		if f1*f2 != max(c.m0, 1) {
			t.Errorf("FactorPair(%d): product %d", c.m0, f1*f2)
		}
	}
}

func TestBlockWrapReadVolume(t *testing.T) {
	// Paper's 64-node example: naive 65 n^2, block wrap 16 n^2.
	n := 1000
	if got := naiveReadVolume(n, 64); got != 65_000_000 {
		t.Fatalf("naive = %d", got)
	}
	if got := blockWrapReadVolume(n, 64); got != 16_000_000 {
		t.Fatalf("block wrap = %d", got)
	}
	if blockWrapReadVolume(n, 64) >= naiveReadVolume(n, 64) {
		t.Fatal("block wrap must read less than naive")
	}
}

func TestOptionsValidate(t *testing.T) {
	o := Options{NB: 0}
	if err := o.Validate(); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("err = %v", err)
	}
	o = Options{NB: 16, Nodes: 5}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o.Nodes != 6 {
		t.Fatalf("odd Nodes not rounded: %d", o.Nodes)
	}
	if o.Root != "Root" {
		t.Fatalf("Root default = %q", o.Root)
	}
	o = Options{NB: 16, Nodes: 0}
	if err := o.Validate(); err != nil || o.Nodes != 2 {
		t.Fatalf("Nodes floor: %d, %v", o.Nodes, err)
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions(8)
	if !o.SeparateFiles || !o.BlockWrap || !o.TransposeU {
		t.Fatal("optimizations must default on")
	}
	if o.NB != DefaultNB || o.Nodes != 8 {
		t.Fatalf("defaults = %+v", o)
	}
}
