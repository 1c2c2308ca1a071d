// Package dfs is an in-memory stand-in for HDFS: a concurrency-safe
// distributed file system simulator with a hierarchical namespace,
// replication, block placement across simulated datanodes, and precise
// byte-level accounting of reads, writes, and network transfer.
//
// The HPDC 2014 paper's implementation stores every input, intermediate,
// and output matrix in HDFS files under a work directory (Figure 4), and
// its I/O optimizations (Section 6) are claims about how many bytes cross
// this file system and how many workers touch each file. This package
// reproduces those observable properties; it does not persist anything to
// the local disk.
package dfs

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Common errors.
var (
	ErrNotFound = errors.New("dfs: file not found")
	ErrExists   = errors.New("dfs: file already exists")
	ErrIsDir    = errors.New("dfs: path is a directory")
	// ErrCorrupt is returned when every replica of a file fails its
	// checksum.
	ErrCorrupt = errors.New("dfs: all replicas corrupt")
	// ErrNoReplica is returned when every datanode holding the file has
	// died before re-replication could restore a copy — the data is gone,
	// as it would be on HDFS after losing all replica holders.
	ErrNoReplica = errors.New("dfs: no live replica")
	// ErrLastNode rejects killing the only live datanode: a cluster with
	// zero nodes cannot make progress or heal.
	ErrLastNode = errors.New("dfs: cannot kill the last live node")
	// ErrNodeState reports an invalid kill/restart transition (killing a
	// dead node, restarting a live one, or an out-of-range node id).
	ErrNodeState = errors.New("dfs: invalid node state transition")
)

// DefaultReplication mirrors HDFS's default replication factor of 3, which
// the paper uses ("matrices are stored in HDFS with the default replication
// factor of 3").
const DefaultReplication = 3

// file is one stored object. Each replica holds its own copy of the data
// so corruption can hit one replica without touching the others, as on
// real HDFS datanodes; sum is the CRC-32 checksum HDFS verifies on read.
type file struct {
	copies   [][]byte
	sum      uint32
	replicas []int // datanode ids holding a replica
	// readers tracks the current and maximum number of simultaneous
	// readers, supporting the paper's Section 5.2 claim that its layout
	// never has two mappers reading or writing the same file at once.
	readers    int
	maxReaders int
	writes     int   // number of times this path was (re)written
	bytesRead  int64 // cumulative bytes served from this path
}

// Stats is a snapshot of the accumulated I/O accounting.
type Stats struct {
	BytesWritten     int64 // logical bytes written by clients
	BytesReplicated  int64 // bytes written including replication copies
	BytesRead        int64 // bytes read by clients
	BytesTransferred int64 // bytes that crossed the simulated network
	FilesCreated     int64
	ReadOps          int64
	WriteOps         int64
	// CorruptionsHealed counts reads that found a corrupt replica and
	// served (and restored it from) a healthy one.
	CorruptionsHealed int64
	// ReplicasLost counts replicas dropped because their datanode died.
	ReplicasLost int64
	// ReReplications counts replica copies made by ReReplicate to restore
	// the replication factor after node deaths.
	ReReplications int64
	// BytesReReplicated counts the bytes those healing copies moved across
	// the network (also charged to BytesTransferred).
	BytesReReplicated int64
}

// FS is the simulated distributed file system.
type FS struct {
	mu          sync.Mutex
	files       map[string]*file
	nodes       int
	replication int
	nextNode    int
	stats       Stats
	// alive[i] reports whether datanode i is up. Dead nodes hold no
	// replicas (their copies are dropped when they die, like blocks on a
	// dead HDFS datanode) and receive no new placements until restarted.
	alive []bool
	// nodeRead[i] / nodeWritten[i] are the byte flows through datanode i:
	// bytes read by a task running on node i, and bytes landed on node i
	// as a replica. masterRead accounts node-less (driver) reads.
	nodeRead    []int64
	nodeWritten []int64
	masterRead  int64
	// metrics, when non-nil, mirrors the accounting into an obs registry.
	metrics struct {
		bytesRead, bytesWritten, bytesTransferred *obs.Counter
		readOps, writeOps                         *obs.Counter
		bytesReReplicated                         *obs.Counter
	}
	// injectReadErr, when non-nil, is consulted on every read; a non-nil
	// return aborts the read (a transient datanode failure). Set with
	// InjectReadErrors.
	injectReadErr func(path string) error
}

// SetMetrics mirrors the file system's byte accounting into reg (nil
// detaches). Counters are resolved once here so the read/write paths pay
// no map lookups.
func (fs *FS) SetMetrics(reg *obs.Registry) {
	fs.mu.Lock()
	fs.metrics.bytesRead = reg.Counter("dfs.bytes_read")
	fs.metrics.bytesWritten = reg.Counter("dfs.bytes_written")
	fs.metrics.bytesTransferred = reg.Counter("dfs.bytes_transferred")
	fs.metrics.readOps = reg.Counter("dfs.read_ops")
	fs.metrics.writeOps = reg.Counter("dfs.write_ops")
	fs.metrics.bytesReReplicated = reg.Counter("dfs.bytes_rereplicated")
	fs.mu.Unlock()
}

// NodeIO is one datanode's cumulative byte flow.
type NodeIO struct {
	Node         int
	BytesRead    int64 // bytes read by tasks executing on this node
	BytesWritten int64 // bytes landed on this node as a replica
}

// PerNodeIO returns the byte flow through every datanode, in node order.
func (fs *FS) PerNodeIO() []NodeIO {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]NodeIO, fs.nodes)
	for i := range out {
		out[i] = NodeIO{Node: i, BytesRead: fs.nodeRead[i], BytesWritten: fs.nodeWritten[i]}
	}
	return out
}

// MasterBytesRead returns the bytes read without a node identity (the
// MapReduce master / pipeline driver).
func (fs *FS) MasterBytesRead() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.masterRead
}

// FileIO is one file's cumulative read volume.
type FileIO struct {
	Path      string
	BytesRead int64
}

// HotFiles returns the k most-read files, by bytes served, descending
// (ties broken by path). It answers "which file bounded the shuffle" the
// way the paper's Section 6 reasons about per-file I/O.
func (fs *FS) HotFiles(k int) []FileIO {
	fs.mu.Lock()
	out := make([]FileIO, 0, len(fs.files))
	for p, f := range fs.files {
		if f.bytesRead > 0 {
			out = append(out, FileIO{Path: p, BytesRead: f.bytesRead})
		}
	}
	fs.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].BytesRead != out[j].BytesRead {
			return out[i].BytesRead > out[j].BytesRead
		}
		return out[i].Path < out[j].Path
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// InjectReadErrors installs a read fault injector (nil disables). The
// MapReduce engine's task retry turns such transient failures into
// re-executed attempts, like Hadoop re-reading from HDFS.
func (fs *FS) InjectReadErrors(f func(path string) error) {
	fs.mu.Lock()
	fs.injectReadErr = f
	fs.mu.Unlock()
}

// New creates a file system simulator with the given number of datanodes
// and replication factor. Replication is capped at the node count.
func New(nodes, replication int) *FS {
	if nodes < 1 {
		nodes = 1
	}
	if replication < 1 {
		replication = 1
	}
	if replication > nodes {
		replication = nodes
	}
	alive := make([]bool, nodes)
	for i := range alive {
		alive[i] = true
	}
	return &FS{
		files:       make(map[string]*file),
		nodes:       nodes,
		replication: replication,
		nodeRead:    make([]int64, nodes),
		nodeWritten: make([]int64, nodes),
		alive:       alive,
	}
}

// Clean normalizes a path: no leading/trailing slashes, no empty segments.
func Clean(path string) string {
	parts := strings.Split(path, "/")
	out := parts[:0]
	for _, p := range parts {
		if p != "" && p != "." {
			out = append(out, p)
		}
	}
	return strings.Join(out, "/")
}

// Write stores data at path, overwriting any existing file. Replicas are
// placed round-robin across datanodes, charging replicated bytes and
// (replication-1)/replication of them as network transfer — the pipeline
// copies HDFS makes to the other replica holders.
func (fs *FS) Write(path string, data []byte) {
	path = Clean(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		f = &file{replicas: fs.placeLocked()}
		fs.files[path] = f
		fs.stats.FilesCreated++
	}
	if len(f.replicas) == 0 {
		// Every holder died since the file was written; a rewrite places
		// it fresh on live nodes.
		f.replicas = fs.placeLocked()
	}
	f.copies = make([][]byte, len(f.replicas))
	for i := range f.copies {
		f.copies[i] = append([]byte(nil), data...)
	}
	f.sum = crc32.ChecksumIEEE(data)
	f.writes++
	fs.stats.WriteOps++
	fs.stats.BytesWritten += int64(len(data))
	fs.stats.BytesReplicated += int64(len(data) * len(f.replicas))
	fs.stats.BytesTransferred += int64(len(data) * (len(f.replicas) - 1))
	for _, r := range f.replicas {
		fs.nodeWritten[r] += int64(len(data))
	}
	fs.metrics.writeOps.Add(1)
	fs.metrics.bytesWritten.Add(int64(len(data)))
	fs.metrics.bytesTransferred.Add(int64(len(data) * (len(f.replicas) - 1)))
}

// WriteFrom stores data at path with an explicit replica placement —
// HDFS's favored-nodes write path. The file's replicas land exactly on
// the requested nodes (deduplicated, dead nodes skipped, falling back to
// round-robin placement when none survive). writer is the datanode
// producing the bytes (-1 for the master): every replica on a node other
// than the writer is charged as network transfer, so placing replicas on
// the nodes that will read the file converts read-side shuffle into the
// one-time pipelined copy the write already pays for. Unlike Write, a
// rewrite re-places the file on the requested nodes, keeping layouts
// deterministic across task retries.
func (fs *FS) WriteFrom(path string, data []byte, writer int, nodes []int) {
	path = Clean(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var reps []int
	for _, n := range nodes {
		if n < 0 || n >= fs.nodes || !fs.alive[n] {
			continue
		}
		dup := false
		for _, r := range reps {
			if r == n {
				dup = true
				break
			}
		}
		if !dup {
			reps = append(reps, n)
		}
	}
	if len(reps) == 0 {
		reps = fs.placeLocked()
	}
	f, ok := fs.files[path]
	if !ok {
		f = &file{}
		fs.files[path] = f
		fs.stats.FilesCreated++
	}
	f.replicas = reps
	f.copies = make([][]byte, len(reps))
	for i := range f.copies {
		f.copies[i] = append([]byte(nil), data...)
	}
	f.sum = crc32.ChecksumIEEE(data)
	f.writes++
	transfers := len(reps) - 1
	if writer >= 0 {
		transfers = 0
		for _, r := range reps {
			if r != writer {
				transfers++
			}
		}
	}
	fs.stats.WriteOps++
	fs.stats.BytesWritten += int64(len(data))
	fs.stats.BytesReplicated += int64(len(data) * len(reps))
	fs.stats.BytesTransferred += int64(len(data) * transfers)
	for _, r := range reps {
		fs.nodeWritten[r] += int64(len(data))
	}
	fs.metrics.writeOps.Add(1)
	fs.metrics.bytesWritten.Add(int64(len(data)))
	fs.metrics.bytesTransferred.Add(int64(len(data) * transfers))
}

// placeLocked chooses replica nodes for a new file round-robin over the
// live datanodes, never placing two replicas of one file on the same node
// and never on a dead one. The replica count is capped at the live node
// count.
func (fs *FS) placeLocked() []int {
	return fs.placeAvoidingLocked(fs.replication, nil)
}

// placeAvoidingLocked picks up to want distinct live nodes, skipping any
// node in avoid (existing replica holders, during re-replication). Scans
// round-robin from nextNode so placements stay spread.
func (fs *FS) placeAvoidingLocked(want int, avoid []int) []int {
	avoided := func(n int) bool {
		for _, a := range avoid {
			if a == n {
				return true
			}
		}
		return false
	}
	var reps []int
	for off := 0; off < fs.nodes && len(reps) < want; off++ {
		n := (fs.nextNode + off) % fs.nodes
		if fs.alive[n] && !avoided(n) {
			reps = append(reps, n)
		}
	}
	fs.nextNode = (fs.nextNode + 1) % fs.nodes
	return reps
}

// Create stores an empty file at path, failing if it already exists.
func (fs *FS) Create(path string) error {
	path = Clean(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path]; ok {
		return fmt.Errorf("%s: %w", path, ErrExists)
	}
	reps := fs.placeLocked()
	fs.files[path] = &file{replicas: reps, copies: make([][]byte, len(reps)), sum: crc32.ChecksumIEEE(nil)}
	fs.stats.FilesCreated++
	fs.stats.WriteOps++
	return nil
}

// Read returns a copy of the file's contents, charging a local read
// (no transfer). Equivalent to ReadFrom with a node holding a replica.
func (fs *FS) Read(path string) ([]byte, error) {
	return fs.ReadFrom(path, -1)
}

// ReadFrom returns the file's contents as read by the given datanode.
// If the node does not hold a replica, the bytes are charged as network
// transfer — this is how data-locality effects become visible in Stats.
func (fs *FS) ReadFrom(path string, node int) ([]byte, error) {
	data, err := fs.View(path, node)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), data...), nil
}

// View is ReadFrom without the private copy (node < 0 reads as the
// master): the checksum is verified, corrupt replicas are healed and the
// read is charged exactly as ReadFrom does, but the returned slice is the
// stored replica itself. Callers must treat it as read-only. It stays
// valid and unchanged for as long as they hold it, because the file
// system never modifies replica bytes in place: writes, healing,
// corruption injection and re-replication all install fresh slices.
// Decoders that only copy out of the bytes (the matrix region reads) use
// it to skip one whole-file copy per read.
func (fs *FS) View(path string, node int) ([]byte, error) {
	path = Clean(path)
	fs.mu.Lock()
	if fs.injectReadErr != nil {
		if err := fs.injectReadErr(path); err != nil {
			fs.mu.Unlock()
			return nil, fmt.Errorf("dfs: injected read failure on %s: %w", path, err)
		}
	}
	f, ok := fs.files[path]
	if !ok {
		fs.mu.Unlock()
		return nil, fmt.Errorf("%s: %w", path, ErrNotFound)
	}
	if len(f.replicas) == 0 {
		fs.mu.Unlock()
		return nil, fmt.Errorf("%s: %w", path, ErrNoReplica)
	}
	f.readers++
	if f.readers > f.maxReaders {
		f.maxReaders = f.readers
	}
	// Checksum verification: serve the first healthy replica; heal any
	// corrupt copies from it (HDFS re-replicates on checksum failure).
	good := -1
	corrupt := 0
	for i, c := range f.copies {
		if crc32.ChecksumIEEE(c) == f.sum {
			good = i
		} else {
			corrupt++
		}
	}
	if good < 0 {
		f.readers--
		fs.mu.Unlock()
		return nil, fmt.Errorf("%s: %w", path, ErrCorrupt)
	}
	if corrupt > 0 {
		for i, c := range f.copies {
			if crc32.ChecksumIEEE(c) != f.sum {
				f.copies[i] = append([]byte(nil), f.copies[good]...)
				// Healing copies the block across the network.
				fs.stats.BytesTransferred += int64(len(f.copies[good]))
			}
		}
		fs.stats.CorruptionsHealed += int64(corrupt)
	}
	data := f.copies[good]
	fs.stats.ReadOps++
	fs.stats.BytesRead += int64(len(data))
	f.bytesRead += int64(len(data))
	fs.metrics.readOps.Add(1)
	fs.metrics.bytesRead.Add(int64(len(data)))
	if node >= 0 && node < len(fs.nodeRead) {
		fs.nodeRead[node] += int64(len(data))
	} else {
		fs.masterRead += int64(len(data))
	}
	if node >= 0 {
		local := false
		for _, r := range f.replicas {
			if r == node {
				local = true
				break
			}
		}
		if !local {
			fs.stats.BytesTransferred += int64(len(data))
			fs.metrics.bytesTransferred.Add(int64(len(data)))
		}
	}
	f.readers--
	fs.mu.Unlock()
	return data, nil
}

// Corrupt flips a byte in one replica of the file — the fault-injection
// hook for checksum/healing tests. It fails if the replica index is out
// of range or the file is empty.
func (fs *FS) Corrupt(path string, replica int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[Clean(path)]
	if !ok {
		return fmt.Errorf("%s: %w", Clean(path), ErrNotFound)
	}
	if replica < 0 || replica >= len(f.copies) {
		return fmt.Errorf("dfs: Corrupt %s: replica %d of %d", path, replica, len(f.copies))
	}
	if len(f.copies[replica]) == 0 {
		return fmt.Errorf("dfs: Corrupt %s: empty file", path)
	}
	cp := append([]byte(nil), f.copies[replica]...)
	cp[len(cp)/2] ^= 0xff
	f.copies[replica] = cp
	return nil
}

// Exists reports whether path holds a file.
func (fs *FS) Exists(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[Clean(path)]
	return ok
}

// Size returns the byte size of the file at path.
func (fs *FS) Size(path string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[Clean(path)]
	if !ok {
		return 0, fmt.Errorf("%s: %w", path, ErrNotFound)
	}
	if len(f.copies) == 0 {
		return 0, nil
	}
	return int64(len(f.copies[0])), nil
}

// Replicas returns the datanode ids holding the file.
func (fs *FS) Replicas(path string) ([]int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[Clean(path)]
	if !ok {
		return nil, fmt.Errorf("%s: %w", path, ErrNotFound)
	}
	return append([]int(nil), f.replicas...), nil
}

// MaxConcurrentReaders returns the largest number of simultaneous readers
// the file has seen. The paper's file layout keeps this at 1 for all
// intermediate files (Section 5.2).
func (fs *FS) MaxConcurrentReaders(path string) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[Clean(path)]
	if !ok {
		return 0, fmt.Errorf("%s: %w", path, ErrNotFound)
	}
	return f.maxReaders, nil
}

// WriteCount returns how many times path has been written. The layout's
// no-synchronization claim implies 1 for every intermediate file.
func (fs *FS) WriteCount(path string) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[Clean(path)]
	if !ok {
		return 0, fmt.Errorf("%s: %w", path, ErrNotFound)
	}
	return f.writes, nil
}

// Delete removes the file at path.
func (fs *FS) Delete(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	path = Clean(path)
	if _, ok := fs.files[path]; !ok {
		return fmt.Errorf("%s: %w", path, ErrNotFound)
	}
	delete(fs.files, path)
	return nil
}

// DeleteTree removes every file under the directory prefix.
func (fs *FS) DeleteTree(dir string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir = Clean(dir)
	prefix := dir + "/"
	n := 0
	for p := range fs.files {
		if p == dir || strings.HasPrefix(p, prefix) {
			delete(fs.files, p)
			n++
		}
	}
	return n
}

// List returns the sorted paths of all files under the directory prefix.
func (fs *FS) List(dir string) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir = Clean(dir)
	prefix := dir + "/"
	if dir == "" {
		prefix = ""
	}
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Du returns the total bytes stored under the directory prefix (logical
// size of the primary copies, not counting replication).
func (fs *FS) Du(dir string) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir = Clean(dir)
	prefix := dir + "/"
	if dir == "" {
		prefix = ""
	}
	var total int64
	for p, f := range fs.files {
		if strings.HasPrefix(p, prefix) && len(f.copies) > 0 {
			total += int64(len(f.copies[0]))
		}
	}
	return total
}

// FileCount returns the total number of files, a metric the Section 6.1
// separate-files optimization reasons about (N(d) files per triangular
// factor).
func (fs *FS) FileCount() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.files)
}

// Stats returns a snapshot of the accounting counters.
func (fs *FS) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats
}

// ResetStats zeroes the accounting counters, including the per-node byte
// flows (files are kept).
func (fs *FS) ResetStats() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.stats = Stats{}
	fs.nodeRead = make([]int64, fs.nodes)
	fs.nodeWritten = make([]int64, fs.nodes)
	fs.masterRead = 0
}

// Nodes returns the number of simulated datanodes.
func (fs *FS) Nodes() int { return fs.nodes }

// ---- Node failure model ----
//
// The paper's Section 7.4 robustness claim rests on HDFS surviving
// datanode deaths: replicas on a dead node are lost, the namenode notices
// under-replicated blocks and copies them back up to the replication
// factor on the surviving nodes, and new placements avoid dead nodes. The
// methods below reproduce exactly that observable contract; the chaos
// engine drives them on a deterministic schedule.

// KillNode marks datanode n dead and drops every replica it held (the
// blocks die with the machine). Files whose last replica was on n become
// unreadable (ErrNoReplica) until rewritten. Killing the only live node
// is rejected with ErrLastNode.
func (fs *FS) KillNode(n int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if n < 0 || n >= fs.nodes || !fs.alive[n] {
		return fmt.Errorf("dfs: KillNode %d: %w", n, ErrNodeState)
	}
	if fs.aliveCountLocked() <= 1 {
		return fmt.Errorf("dfs: KillNode %d: %w", n, ErrLastNode)
	}
	fs.alive[n] = false
	for _, f := range fs.files {
		for i := 0; i < len(f.replicas); i++ {
			if f.replicas[i] == n {
				f.replicas = append(f.replicas[:i], f.replicas[i+1:]...)
				f.copies = append(f.copies[:i], f.copies[i+1:]...)
				fs.stats.ReplicasLost++
				i--
			}
		}
	}
	return nil
}

// RestartNode brings datanode n back up, empty: its pre-death replicas
// are gone (they were dropped at kill time), but it can hold new
// placements and re-replication targets again.
func (fs *FS) RestartNode(n int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if n < 0 || n >= fs.nodes || fs.alive[n] {
		return fmt.Errorf("dfs: RestartNode %d: %w", n, ErrNodeState)
	}
	fs.alive[n] = true
	return nil
}

// NodeAlive reports whether datanode n is up.
func (fs *FS) NodeAlive(n int) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return n >= 0 && n < fs.nodes && fs.alive[n]
}

// AliveNodes returns the number of live datanodes.
func (fs *FS) AliveNodes() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.aliveCountLocked()
}

func (fs *FS) aliveCountLocked() int {
	n := 0
	for _, a := range fs.alive {
		if a {
			n++
		}
	}
	return n
}

// ReReplicate restores every under-replicated file back up to the
// replication factor (capped at the live node count) by copying from a
// surviving replica — HDFS's namenode-driven background healing, run
// synchronously here so chaos schedules stay deterministic. Files are
// healed in sorted path order; each copy is charged to ReReplications,
// BytesReReplicated, and BytesTransferred. Returns the number of replica
// copies made and the bytes moved.
func (fs *FS) ReReplicate() (copies int, bytes int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	want := fs.replication
	if live := fs.aliveCountLocked(); want > live {
		want = live
	}
	paths := make([]string, 0, len(fs.files))
	for p := range fs.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		f := fs.files[p]
		if len(f.replicas) == 0 || len(f.replicas) >= want {
			continue // lost entirely, or already at factor
		}
		targets := fs.placeAvoidingLocked(want-len(f.replicas), f.replicas)
		for _, t := range targets {
			data := append([]byte(nil), f.copies[0]...)
			f.replicas = append(f.replicas, t)
			f.copies = append(f.copies, data)
			fs.nodeWritten[t] += int64(len(data))
			fs.stats.ReReplications++
			fs.stats.BytesReReplicated += int64(len(data))
			fs.stats.BytesTransferred += int64(len(data))
			fs.metrics.bytesReReplicated.Add(int64(len(data)))
			fs.metrics.bytesTransferred.Add(int64(len(data)))
			copies++
			bytes += int64(len(data))
		}
	}
	return copies, bytes
}

// NodeStat is one datanode's stored state and cumulative byte flow.
type NodeStat struct {
	Node  int   `json:"node"`
	Alive bool  `json:"alive"`
	Files int   `json:"files"` // replicas currently held
	Bytes int64 `json:"bytes"` // bytes currently stored
	// BytesRead / BytesWritten are the flow counters also reported by
	// PerNodeIO: bytes read by tasks on this node, bytes landed on it.
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
}

// NodeStats returns per-node storage and flow accounting, in node order —
// the view that validates re-replication really moved data off dead nodes
// and spread it over the survivors.
func (fs *FS) NodeStats() []NodeStat {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]NodeStat, fs.nodes)
	for i := range out {
		out[i] = NodeStat{Node: i, Alive: fs.alive[i],
			BytesRead: fs.nodeRead[i], BytesWritten: fs.nodeWritten[i]}
	}
	for _, f := range fs.files {
		for i, r := range f.replicas {
			out[r].Files++
			out[r].Bytes += int64(len(f.copies[i]))
		}
	}
	return out
}

// CheckPlacement verifies the replica placement invariants: no file holds
// two replicas on the same node, and no replica sits on a dead node.
// Returns the first violation found (nil when clean).
func (fs *FS) CheckPlacement() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	paths := make([]string, 0, len(fs.files))
	for p := range fs.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		f := fs.files[p]
		seen := map[int]bool{}
		for _, r := range f.replicas {
			if seen[r] {
				return fmt.Errorf("dfs: %s: two replicas on node %d", p, r)
			}
			seen[r] = true
			if !fs.alive[r] {
				return fmt.Errorf("dfs: %s: replica on dead node %d", p, r)
			}
		}
	}
	return nil
}
