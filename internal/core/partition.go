package core

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
)

// The data-partitioning MapReduce job (Section 5.2, Algorithm 3, Figures 3
// and 4). It is a map-only job: mapper j reads its band of consecutive
// input rows and recursively scatters them into the A1/A2/A3/A4 directory
// tree, down to leaves of order <= nb. Every file is written by exactly
// one mapper (no synchronization on writes) and each mapper emits one
// (path -> coordinates) control pair per file it wrote, from which the
// master reconstructs the partition index.
//
// A4 - L2'U2 submatrices produced later are *not* physically partitioned:
// their partitions exist only as matRef metadata (Section 5.2's "very
// small" index files), which is what nodeInput.child encodes.

// nodeInput describes the input submatrix of one recursion node: either a
// physically partitioned node (parts != nil, from the partition job) or a
// logical slice of previously produced files (whole != nil).
type nodeInput struct {
	dir string
	n   int

	whole *matRef     // logical node (leaves, and every B subtree node)
	parts *partedNode // physically partitioned node on the A1 chain
}

// partedNode holds the quadrant references of a physically partitioned
// node. a1 is the recursively partitioned top-left quadrant.
type partedNode struct {
	a1         *nodeInput
	a2, a3, a4 matRef
}

// quadrants returns the references of A2, A3, A4 and the child input for
// A1, regardless of how the node is backed.
func (ni *nodeInput) quadrants() (a1 *nodeInput, a2, a3, a4 matRef) {
	h := splitPoint(ni.n)
	if ni.parts != nil {
		return ni.parts.a1, ni.parts.a2, ni.parts.a3, ni.parts.a4
	}
	w := *ni.whole
	a1ref := w.slice(0, h, 0, h)
	a1 = &nodeInput{dir: ni.dir + "/A1", n: h, whole: &a1ref}
	return a1, w.slice(0, h, h, ni.n), w.slice(h, ni.n, 0, h), w.slice(h, ni.n, h, ni.n)
}

// leafRef returns the full reference of a leaf node.
func (ni *nodeInput) leafRef() matRef {
	if ni.whole != nil {
		return *ni.whole
	}
	panic("core: physical node used as leaf")
}

// splitPoint returns h, the order of A1 when partitioning an order-n node.
// ceil(n/2) matches Depth's halving so every leaf lands at or below nb.
func splitPoint(n int) int { return (n + 1) / 2 }

// partitionJob builds the map-only partition job for an input matrix
// stored as m0 row-band files under root/input/R.<j>. Map tasks prefer
// the datanodes holding their input band (Hadoop's data-local placement),
// which the engine honors through delay scheduling.
func partitionJob(opts Options, n int, fs *dfs.FS) *mapreduce.Job {
	m0 := opts.Nodes
	return &mapreduce.Job{
		Name:     "partition",
		Splits:   mapreduce.ControlSplits(m0),
		Priority: opts.Priority,
		Prefer: func(task int) []int {
			path := fmt.Sprintf("%s/input/R.%d", opts.Root, task)
			if opts.TextInput {
				path += ".txt"
			}
			reps, err := fs.Replicas(path)
			if err != nil {
				return nil
			}
			return reps
		},
		Map: func(ctx *mapreduce.TaskContext, split mapreduce.InputSplit, emit mapreduce.Emitter) error {
			j := split.ID
			r0, r1 := bandBounds(n, m0, j)
			if r0 == r1 {
				return nil
			}
			rd := nodeReader{fs: ctx.FS, node: ctx.Node}
			band, err := readInputBand(rd, opts, j)
			if err != nil {
				return err
			}
			if band.Rows != r1-r0 || band.Cols != n {
				return fmt.Errorf("core: partition mapper %d: band is %dx%d, want %dx%d", j, band.Rows, band.Cols, r1-r0, n)
			}
			p := &partitioner{ctx: ctx, emit: emit, opts: opts, mapperID: j}
			p.descend(opts.Root, n, band, r0)
			return nil
		},
	}
}

// partitioner carries the state of one partition mapper's recursive
// descent (Algorithm 3).
type partitioner struct {
	ctx      *mapreduce.TaskContext
	emit     mapreduce.Emitter
	opts     Options
	mapperID int
}

// descend scatters the mapper's band (covering global rows
// [bandOff, bandOff+band.Rows) of the order-n node rooted at dir) into the
// node's files. All coordinates emitted are local to the destination
// quadrant's frame.
func (p *partitioner) descend(dir string, n int, band *matrix.Dense, bandOff int) {
	r0, r1 := bandOff, bandOff+band.Rows
	if n <= p.opts.NB {
		// Leaf: save the band rows as one file (Algorithm 3 line 5).
		p.save(fmt.Sprintf("%s/A.%d", dir, p.mapperID), band, r0, r1, 0, n)
		return
	}
	h := splitPoint(n)
	mhalf := p.opts.Nodes / 2
	if r0 < h {
		topHi := min(r1, h)
		top := band.Block(0, topHi-r0, 0, band.Cols)
		// Recurse into A1 with the top-left part of the band.
		p.descend(dir+"/A1", h, top.Block(0, top.Rows, 0, h), r0)
		// A2: columns [h, n), split into mhalf column bands so each U2
		// mapper later reads only its own files (Algorithm 3 lines 9-12).
		for cb := 0; cb < mhalf; cb++ {
			clo, chi := bandBounds(n-h, mhalf, cb)
			if clo == chi {
				continue
			}
			piece := top.Block(0, top.Rows, h+clo, h+chi)
			p.save(fmt.Sprintf("%s/A2/A.%d.%d", dir, cb, p.mapperID), piece, r0, topHi, clo, chi)
		}
	}
	if r1 > h {
		botLo := max(r0, h)
		bot := band.Block(botLo-r0, band.Rows, 0, band.Cols)
		// A3: one row-band file per mapper (Algorithm 3 lines 14-18).
		p.save(fmt.Sprintf("%s/A3/A.%d", dir, p.mapperID), bot.Block(0, bot.Rows, 0, h), botLo-h, r1-h, 0, h)
		// A4: split into f2 column groups for the block-wrap reducers
		// (Algorithm 3 lines 19-25).
		_, f2 := FactorPair(p.opts.Nodes)
		if !p.opts.BlockWrap {
			f2 = 1 // naive layout: single column group
		}
		for cg := 0; cg < f2; cg++ {
			clo, chi := bandBounds(n-h, f2, cg)
			if clo == chi {
				continue
			}
			piece := bot.Block(0, bot.Rows, h+clo, h+chi)
			p.save(fmt.Sprintf("%s/A4/A.%d.%d", dir, p.mapperID, cg), piece, botLo-h, r1-h, clo, chi)
		}
	}
}

// save writes one partition file and emits its index entry.
func (p *partitioner) save(path string, m *matrix.Dense, r0, r1, c0, c1 int) {
	if m.Rows == 0 || m.Cols == 0 {
		return
	}
	if err := p.ctx.FS.WriteMatrix(path, m); err != nil {
		panic(err) // converted to a task failure by the engine
	}
	p.emit.Emit(path, []byte(fmt.Sprintf("%d %d %d %d", r0, r1, c0, c1)))
}

// buildInputTree converts the partition job's (path -> coords) output into
// the nodeInput tree for the A1 chain rooted at opts.Root.
func buildInputTree(opts Options, n int, kvs []mapreduce.KV) (*nodeInput, error) {
	// Group block files by their directory.
	groups := make(map[string][]blockFile)
	for _, kv := range kvs {
		var b blockFile
		b.Path = kv.Key
		if _, err := fmt.Sscanf(string(kv.Value), "%d %d %d %d", &b.R0, &b.R1, &b.C0, &b.C1); err != nil {
			return nil, fmt.Errorf("core: bad partition index entry %q=%q: %v", kv.Key, kv.Value, err)
		}
		dir := kv.Key[:strings.LastIndex(kv.Key, "/")]
		groups[dir] = append(groups[dir], b)
	}
	for dir := range groups {
		sortBlocks(groups[dir])
	}
	return buildNode(opts, opts.Root, n, groups)
}

func buildNode(opts Options, dir string, n int, groups map[string][]blockFile) (*nodeInput, error) {
	if n <= opts.NB {
		blocks, ok := groups[dir]
		if !ok {
			return nil, fmt.Errorf("core: no partition files for leaf %s", dir)
		}
		ref := matRef{Rows: n, Cols: n, Blocks: blocks}
		return &nodeInput{dir: dir, n: n, whole: &ref}, nil
	}
	h := splitPoint(n)
	a1, err := buildNode(opts, dir+"/A1", h, groups)
	if err != nil {
		return nil, err
	}
	pn := &partedNode{
		a1: a1,
		a2: matRef{Rows: h, Cols: n - h, Blocks: groups[dir+"/A2"]},
		a3: matRef{Rows: n - h, Cols: h, Blocks: groups[dir+"/A3"]},
		a4: matRef{Rows: n - h, Cols: n - h, Blocks: groups[dir+"/A4"]},
	}
	for name, ref := range map[string]matRef{"A2": pn.a2, "A3": pn.a3, "A4": pn.a4} {
		if len(ref.Blocks) == 0 {
			return nil, fmt.Errorf("core: no partition files for %s/%s", dir, name)
		}
	}
	return &nodeInput{dir: dir, n: n, parts: pn}, nil
}

func sortBlocks(blocks []blockFile) {
	sort.Slice(blocks, func(i, j int) bool {
		if blocks[i].R0 != blocks[j].R0 {
			return blocks[i].R0 < blocks[j].R0
		}
		if blocks[i].C0 != blocks[j].C0 {
			return blocks[i].C0 < blocks[j].C0
		}
		return blocks[i].Path < blocks[j].Path
	})
}

// writeInputBands stores the input matrix as m0 row-band files under
// root/input/, the layout HDFS gives a large file whose blocks are
// distributed across datanodes. With opts.TextInput the bands use the
// paper's text format ("a.txt"), costing ~2.5x the bytes.
func writeInputBands(fs *dfs.FS, opts Options, a *matrix.Dense, m0 int) error {
	for j := 0; j < m0; j++ {
		r0, r1 := bandBounds(a.Rows, m0, j)
		if r0 == r1 {
			continue
		}
		path := fmt.Sprintf("%s/input/R.%d", opts.Root, j)
		band := a.Block(r0, r1, 0, a.Cols)
		if opts.TextInput {
			if err := fs.WriteMatrixText(path+".txt", band); err != nil {
				return err
			}
			continue
		}
		if err := fs.WriteMatrix(path, band); err != nil {
			return err
		}
	}
	return nil
}

// readInputBand loads one input band in the configured format.
func readInputBand(rd nodeReader, opts Options, j int) (*matrix.Dense, error) {
	path := fmt.Sprintf("%s/input/R.%d", opts.Root, j)
	if opts.TextInput {
		data, err := rd.read(path + ".txt")
		if err != nil {
			return nil, err
		}
		return matrix.ReadText(bytes.NewReader(data))
	}
	return rd.readMatrix(path)
}

// controlFilePath returns the Section 5.1 control file path for worker j.
func controlFilePath(root string, j int) string {
	return root + "/MapInput/A." + strconv.Itoa(j)
}
