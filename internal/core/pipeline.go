package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// Pipeline is the paper's end-to-end matrix inverter: it owns a simulated
// cluster (MapReduce engine + distributed file system) and runs the
// Figure 2 job pipeline — partition, 2^d - 1 block-LU jobs, and the final
// triangular-inversion job — against it.
type Pipeline struct {
	Opts    Options
	FS      *dfs.FS
	Cluster *mapreduce.Cluster
	// Tracer, when non-nil, records a hierarchical span tree for each run:
	// one pipeline root, one span per MapReduce job with byte attribution,
	// and op spans for master-side work. Nil costs nothing.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives DFS and engine counters.
	Metrics *obs.Registry
}

// attachObs wires the pipeline's observability hooks into the layers it
// owns. Called at the top of each run entry point; idempotent.
func (p *Pipeline) attachObs() {
	if p.Tracer != nil {
		p.Cluster.Tracer = p.Tracer
	}
	if p.Metrics != nil {
		p.Cluster.Metrics = p.Metrics
		p.FS.SetMetrics(p.Metrics)
	}
}

// finishSpanErr closes a span that ends in failure.
func finishSpanErr(span *obs.Span, err error) {
	if span == nil {
		return
	}
	span.SetLabel("error", err.Error())
	span.Finish()
}

// JobSummary is one executed MapReduce job's line in the report.
type JobSummary struct {
	Name        string
	MapTasks    int
	ReduceTasks int
	Failures    int
	Elapsed     time.Duration
}

// Report summarizes one inversion run.
type Report struct {
	Order          int
	NB             int
	Nodes          int
	Depth          int
	F1, F2         int
	JobsRun        int              // MapReduce jobs executed
	ExpectedJobs   int              // PipelineJobs(n, nb)
	MapTasks       int              // total map tasks across jobs
	ReduceTasks    int              // total reduce tasks across jobs
	TaskFailures   int              // failed task attempts (recovered)
	Speculative    int              // speculative backup attempts launched
	LostMapOutputs int              // completed map outputs lost to node deaths and re-executed
	FetchRetries   int              // shuffle-fetch retries (transient errors, dying nodes)
	MasterLUs      int              // leaf decompositions on the master
	MasterCombines int              // file combinations (SeparateFiles=false)
	LFactorFiles   int              // files storing L (N(d) when separate)
	Counters       map[string]int64 // Hadoop-style counters across all jobs
	Jobs           []JobSummary     // per-job breakdown in execution order
	FS             dfs.Stats        // byte accounting deltas for this run
	Elapsed        time.Duration    // wall-clock for the whole pipeline
	JobElapsed     time.Duration    // sum of per-job recorded times
	SlotWait       time.Duration    // cumulative time task attempts queued for cluster slots
	SlotGrants     int64            // slots granted across the run's task attempts
	Trace          *obs.Span        // root span of the run (nil when not traced)
}

// pipelineState threads the shared pieces through the recursion.
type pipelineState struct {
	opts    Options
	fs      *dfs.FS
	cluster *mapreduce.Cluster
	ctx     context.Context // run cancellation; never nil
	span    *obs.Span       // run root span; nil when tracing is off

	jobsRun              int
	jobLog               []JobSummary
	mapTasks             int
	reduceTasks          int
	taskFailures         int
	speculative          int
	lostMapOutputs       int
	fetchRetries         int
	masterDecompositions int
	masterCombines       int
	counters             map[string]int64
	jobElapsed           time.Duration
	slotWait             time.Duration
	slotGrants           int64
}

// runCtx returns the run's cancellation context, defaulting to Background
// for callers (and tests) that build a pipelineState without one.
func (st *pipelineState) runCtx() context.Context {
	if st.ctx == nil {
		return context.Background()
	}
	return st.ctx
}

func (st *pipelineState) recordJob(jr *mapreduce.JobResult) {
	st.jobsRun++
	st.jobLog = append(st.jobLog, JobSummary{
		Name:        jr.Job,
		MapTasks:    jr.MapTasks,
		ReduceTasks: jr.ReduceTasks,
		Failures:    jr.TaskFailures,
		Elapsed:     jr.Elapsed,
	})
	st.mapTasks += jr.MapTasks
	st.reduceTasks += jr.ReduceTasks
	st.taskFailures += jr.TaskFailures
	st.speculative += jr.SpeculativeTasks
	st.lostMapOutputs += jr.LostMapOutputs
	st.fetchRetries += jr.FetchRetries
	st.jobElapsed += jr.Elapsed
	st.slotWait += jr.SlotWait
	st.slotGrants += jr.SlotGrants
	if st.counters == nil {
		st.counters = map[string]int64{}
	}
	for k, v := range jr.Counters {
		st.counters[k] += v
	}
}

// NewPipeline builds a pipeline with its own simulated cluster: opts.Nodes
// task slots over opts.Nodes datanodes with HDFS-style 3x replication.
func NewPipeline(opts Options) (*Pipeline, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	fs := dfs.New(opts.Nodes, dfs.DefaultReplication)
	cl := mapreduce.NewCluster(fs, opts.Nodes)
	return &Pipeline{Opts: opts, FS: fs, Cluster: cl}, nil
}

// NewPipelineOn builds a pipeline over an existing file system and
// cluster, so callers can share state, inject failures, or configure
// launch overhead.
func NewPipelineOn(opts Options, fs *dfs.FS, cl *mapreduce.Cluster) (*Pipeline, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Pipeline{Opts: opts, FS: fs, Cluster: cl}, nil
}

// Invert computes A^-1 through the MapReduce pipeline and reports on the
// run. The input must be square and nonsingular (and every diagonal block
// the recursion factors must be nonsingular — the block method pivots
// only within blocks, see DESIGN.md).
func (p *Pipeline) Invert(a *matrix.Dense) (*matrix.Dense, *Report, error) {
	return p.InvertCtx(context.Background(), a)
}

// InvertCtx is Invert with a cancellation context: the pipeline observes
// ctx cooperatively between recursion levels and between the map, shuffle,
// and reduce phases of each MapReduce job (the granularity at which a real
// Hadoop job tracker kills a job). An already-expired ctx returns before
// any cluster work is scheduled.
func (p *Pipeline) InvertCtx(ctx context.Context, a *matrix.Dense) (*matrix.Dense, *Report, error) {
	if a == nil {
		return nil, nil, fmt.Errorf("core: Invert: %w", ErrNilMatrix)
	}
	if !a.IsSquare() {
		return nil, nil, fmt.Errorf("core: Invert: input is %dx%d: %w", a.Rows, a.Cols, ErrNotSquare)
	}
	if a.Rows == 0 {
		return matrix.New(0, 0), &Report{}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	//mrlint:allow determinism(time.Now) -- wall time feeds Report.Elapsed and obs spans only; output bytes are clock-free
	start := time.Now()
	p.attachObs()
	st := &pipelineState{opts: p.Opts, fs: p.FS, cluster: p.Cluster, ctx: ctx}
	n := a.Rows
	statsBefore := p.FS.Stats()
	var ioBefore []dfs.NodeIO
	st.span = p.Tracer.StartSpan("pipeline.invert", obs.KindPipeline)
	if st.span != nil {
		st.span.SetAttr("order", int64(n))
		st.span.SetAttr("nb", int64(p.Opts.NB))
		st.span.SetAttr("nodes", int64(p.Opts.Nodes))
		st.span.SetAttr("depth", int64(Depth(n, p.Opts.NB)))
		ioBefore = p.FS.PerNodeIO()
	}

	// Stage 0 (master): store the input and the Section 5.1 control files.
	wspan := st.span.Child("write_input", obs.KindOp)
	if err := writeInputBands(p.FS, p.Opts, a, p.Opts.Nodes); err != nil {
		finishSpanErr(st.span, err)
		return nil, nil, err
	}
	for j := 0; j < p.Opts.Nodes; j++ {
		p.FS.Write(controlFilePath(p.Opts.Root, j), []byte(fmt.Sprintf("%d", j)))
	}
	wspan.Finish()

	// Stage 1: partition job (map-only).
	pjob := partitionJob(p.Opts, n, p.FS)
	pjob.TraceParent = st.span
	pj, err := p.Cluster.RunCtx(ctx, pjob)
	if err != nil {
		finishSpanErr(st.span, err)
		return nil, nil, err
	}
	st.recordJob(pj)
	tree, err := buildInputTree(p.Opts, n, pj.Output)
	if err != nil {
		finishSpanErr(st.span, err)
		return nil, nil, err
	}

	// Stage 2: block LU decomposition (2^d - 1 jobs).
	hd, err := st.computeLU(tree)
	if err != nil {
		finishSpanErr(st.span, err)
		return nil, nil, err
	}

	// Stage 3: triangular inversion and final output job.
	inv, err := st.runInvertJob(hd)
	if err != nil {
		finishSpanErr(st.span, err)
		return nil, nil, err
	}

	after := p.FS.Stats()
	if st.span != nil {
		// Root-span byte attrs mirror Report.FS exactly: the trace and the
		// report agree on a run's byte accounting by construction.
		st.span.SetAttr("jobs", int64(st.jobsRun))
		st.span.SetAttr("dfs.bytes_read", after.BytesRead-statsBefore.BytesRead)
		st.span.SetAttr("dfs.bytes_written", after.BytesWritten-statsBefore.BytesWritten)
		st.span.SetAttr("dfs.bytes_transferred", after.BytesTransferred-statsBefore.BytesTransferred)
		st.span.SetAttr("dfs.files_created", after.FilesCreated-statsBefore.FilesCreated)
		for i, nio := range p.FS.PerNodeIO() {
			r, w := nio.BytesRead, nio.BytesWritten
			if i < len(ioBefore) {
				r -= ioBefore[i].BytesRead
				w -= ioBefore[i].BytesWritten
			}
			st.span.SetAttr(fmt.Sprintf("dfs.node%d.bytes_read", nio.Node), r)
			st.span.SetAttr(fmt.Sprintf("dfs.node%d.bytes_written", nio.Node), w)
		}
		st.span.Finish()
	}
	rep := &Report{
		Order:          n,
		NB:             p.Opts.NB,
		Nodes:          p.Opts.Nodes,
		Depth:          Depth(n, p.Opts.NB),
		JobsRun:        st.jobsRun,
		ExpectedJobs:   PipelineJobs(n, p.Opts.NB),
		MapTasks:       st.mapTasks,
		ReduceTasks:    st.reduceTasks,
		TaskFailures:   st.taskFailures,
		Speculative:    st.speculative,
		LostMapOutputs: st.lostMapOutputs,
		FetchRetries:   st.fetchRetries,
		MasterLUs:      st.masterDecompositions,
		Counters:       st.counters,
		Jobs:           st.jobLog,
		MasterCombines: st.masterCombines,
		LFactorFiles:   hd.fileCount(),
		Elapsed:        time.Since(start),
		JobElapsed:     st.jobElapsed,
		SlotWait:       st.slotWait,
		SlotGrants:     st.slotGrants,
		Trace:          st.span,
		FS: dfs.Stats{
			BytesWritten:      after.BytesWritten - statsBefore.BytesWritten,
			BytesReplicated:   after.BytesReplicated - statsBefore.BytesReplicated,
			BytesRead:         after.BytesRead - statsBefore.BytesRead,
			BytesTransferred:  after.BytesTransferred - statsBefore.BytesTransferred,
			FilesCreated:      after.FilesCreated - statsBefore.FilesCreated,
			ReadOps:           after.ReadOps - statsBefore.ReadOps,
			WriteOps:          after.WriteOps - statsBefore.WriteOps,
			ReplicasLost:      after.ReplicasLost - statsBefore.ReplicasLost,
			ReReplications:    after.ReReplications - statsBefore.ReReplications,
			BytesReReplicated: after.BytesReReplicated - statsBefore.BytesReReplicated,
		},
	}
	rep.F1, rep.F2 = blockWrapGrid(p.Opts)
	return inv, rep, nil
}

// Determinant computes det(A) through the pipeline's decomposition:
// det(A) = sign(P) · prod(diag U), since PA = LU, L is unit triangular,
// and a permutation's sign equals its inverse's.
func (p *Pipeline) Determinant(a *matrix.Dense) (float64, error) {
	perm, _, u, err := p.Decompose(a)
	if err != nil {
		return 0, err
	}
	det := float64(perm.Sign())
	for i := 0; i < u.Rows; i++ {
		det *= u.At(i, i)
	}
	return det, nil
}

// Decompose runs only the partition and block-LU stages, returning the
// assembled factors P, L, U with P A = L U. It exists for callers (and
// tests) that need the decomposition itself rather than the inverse.
func (p *Pipeline) Decompose(a *matrix.Dense) (perm matrix.Perm, l, u *matrix.Dense, err error) {
	if !a.IsSquare() {
		return nil, nil, nil, fmt.Errorf("core: Decompose: input is %dx%d, not square", a.Rows, a.Cols)
	}
	p.attachObs()
	st := &pipelineState{opts: p.Opts, fs: p.FS, cluster: p.Cluster, ctx: context.Background()}
	st.span = p.Tracer.StartSpan("pipeline.decompose", obs.KindPipeline)
	defer st.span.Finish()
	n := a.Rows
	if err := writeInputBands(p.FS, p.Opts, a, p.Opts.Nodes); err != nil {
		return nil, nil, nil, err
	}
	pjob := partitionJob(p.Opts, n, p.FS)
	pjob.TraceParent = st.span
	pj, err := p.Cluster.Run(pjob)
	if err != nil {
		return nil, nil, nil, err
	}
	st.recordJob(pj)
	tree, err := buildInputTree(p.Opts, n, pj.Output)
	if err != nil {
		return nil, nil, nil, err
	}
	hd, err := st.computeLU(tree)
	if err != nil {
		return nil, nil, nil, err
	}
	rd := masterReader(p.FS)
	l, err = hd.readL(rd)
	if err != nil {
		return nil, nil, nil, err
	}
	u, err = hd.readU(rd)
	if err != nil {
		return nil, nil, nil, err
	}
	return hd.p, l, u, nil
}
