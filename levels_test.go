package mrinverse_test

import (
	"runtime"
	"testing"

	mrinverse "repro"
)

// TestLevelCountsAndBits pins, for every paper flag setting, the inverse
// bits and the exact DFS read/write accounting of whole pipeline runs on
// mrinverse.Random(n, 7). The counts are what the block-LU levels, the
// partition job and the inversion job read and write; they do not depend
// on scheduling. BytesTransferred is deliberately not pinned: which node
// a task lands on, and so which reads are remote, varies run to run.
func TestLevelCountsAndBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; other targets may fuse multiply-adds")
	}
	flags := map[string]func(*mrinverse.Options){
		"default":          func(*mrinverse.Options) {},
		"no-blockwrap":     func(o *mrinverse.Options) { o.BlockWrap = false },
		"no-transposeu":    func(o *mrinverse.Options) { o.TransposeU = false },
		"no-separatefiles": func(o *mrinverse.Options) { o.SeparateFiles = false },
		"streaming":        func(o *mrinverse.Options) { o.StreamingInversion = true },
	}
	cases := []struct {
		n, nb, nodes      int
		flags, digest     string
		read, written     int64
		readOps, writeOps int64
	}{
		{512, 64, 8, "default", "c44ad17b2bdbec04", 42831128, 13789880, 930, 225},
		{512, 64, 8, "no-blockwrap", "c44ad17b2bdbec04", 54904164, 13796036, 1091, 222},
		{512, 64, 8, "no-transposeu", "c44ad17b2bdbec04", 42831128, 13789880, 930, 225},
		{512, 64, 8, "no-separatefiles", "c44ad17b2bdbec04", 57768584, 21136280, 534, 246},
		{512, 64, 8, "streaming", "c44ad17b2bdbec04", 42831128, 13789880, 930, 225},
		{128, 8, 8, "default", "d022c3065f2f26dd", 2800416, 867404, 2168, 392},
		{128, 8, 8, "no-blockwrap", "d022c3065f2f26dd", 3592072, 868940, 2502, 388},
		{128, 8, 8, "no-transposeu", "d022c3065f2f26dd", 2800416, 867404, 2168, 392},
		{128, 8, 8, "no-separatefiles", "d022c3065f2f26dd", 3827600, 1361452, 1068, 437},
		{128, 8, 8, "streaming", "d022c3065f2f26dd", 2800416, 867404, 2168, 392},
		{200, 48, 4, "default", "49c19e692cd49775", 4430456, 2109480, 326, 124},
		{200, 48, 4, "no-blockwrap", "49c19e692cd49775", 5232584, 2110280, 366, 122},
		{200, 48, 4, "no-transposeu", "49c19e692cd49775", 4430456, 2109480, 326, 124},
		{200, 48, 4, "no-separatefiles", "49c19e692cd49775", 5989400, 3232104, 238, 145},
		{200, 48, 4, "streaming", "49c19e692cd49775", 4430456, 2109480, 326, 124},
		{200, 48, 16, "default", "49c19e692cd49775", 9762972, 2117390, 2851, 503},
		{200, 48, 16, "no-blockwrap", "49c19e692cd49775", 14682680, 2124278, 3630, 469},
		{200, 48, 16, "no-transposeu", "49c19e692cd49775", 9762972, 2117390, 2851, 503},
		{200, 48, 16, "no-separatefiles", "49c19e692cd49775", 13463916, 3240014, 1263, 524},
		{200, 48, 16, "streaming", "49c19e692cd49775", 14020956, 2117390, 4083, 503},
	}
	for _, c := range cases {
		if testing.Short() && c.n > 256 {
			continue
		}
		opts := mrinverse.DefaultOptions(c.nodes)
		opts.NB = c.nb
		flags[c.flags](&opts)
		inv, rep, err := mrinverse.Invert(mrinverse.Random(c.n, 7), opts)
		if err != nil {
			t.Fatalf("n=%d nb=%d nodes=%d %s: %v", c.n, c.nb, c.nodes, c.flags, err)
		}
		got := [4]int64{rep.FS.BytesRead, rep.FS.BytesWritten, rep.FS.ReadOps, rep.FS.WriteOps}
		want := [4]int64{c.read, c.written, c.readOps, c.writeOps}
		if d := bitsDigest(inv)[:16]; d != c.digest || got != want {
			t.Errorf("n=%d nb=%d nodes=%d %s: digest %s, read/written/readOps/writeOps %v; want %s, %v",
				c.n, c.nb, c.nodes, c.flags, d, got, c.digest, want)
		}
	}
}
