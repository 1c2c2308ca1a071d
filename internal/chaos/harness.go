package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// ExperimentConfig parameterizes one Section 7.4 failure-recovery replay:
// invert a seeded diagonally-dominant matrix fault-free, invert it again
// with Kill nodes crashing mid-pipeline, and compare.
type ExperimentConfig struct {
	N     int   `json:"n"`     // matrix order
	NB    int   `json:"nb"`    // block size
	Nodes int   `json:"nodes"` // cluster size (m0)
	Kill  int   `json:"kill"`  // nodes to crash mid-pipeline
	Seed  int64 `json:"seed"`  // matrix + fault-schedule seed
	// Restart revives killed nodes later in the run.
	Restart bool `json:"restart,omitempty"`
	// SlowDelay > 0 additionally injects one straggler of this length to
	// drive speculative execution. Zero disables straggler injection.
	SlowDelay time.Duration `json:"slow_delay,omitempty"`
	// FetchFailEvery > 0 injects transient shuffle-fetch errors for ~1 in
	// that many (job, map task) pairs.
	FetchFailEvery int `json:"fetch_fail_every,omitempty"`
}

// RunStats summarizes one pipeline run inside the experiment.
type RunStats struct {
	ElapsedMs         float64 `json:"elapsed_ms"`
	Jobs              int     `json:"jobs"`
	TaskFailures      int     `json:"task_failures"`
	SpeculativeTasks  int     `json:"speculative_tasks"`
	LostMapOutputs    int     `json:"lost_map_outputs"`
	FetchRetries      int     `json:"fetch_retries"`
	Residual          float64 `json:"residual"`
	SHA256            string  `json:"sha256"`
	ReplicasLost      int64   `json:"replicas_lost,omitempty"`
	BytesReReplicated int64   `json:"bytes_rereplicated,omitempty"`
}

// ExperimentResult is the full Section 7.4 comparison.
type ExperimentResult struct {
	Config   ExperimentConfig `json:"config"`
	Plan     string           `json:"plan"`
	Baseline RunStats         `json:"baseline"`
	Faulty   RunStats         `json:"faulty"`
	Chaos    Stats            `json:"chaos"`
	// Slowdown is faulty elapsed over baseline elapsed — the paper's §7.4
	// headline number.
	Slowdown float64 `json:"slowdown"`
	// Identical reports whether the inverse computed under chaos is
	// bit-identical to the fault-free one.
	Identical bool `json:"identical"`
}

// DefaultSlowDelay is the straggler length RunExperiment injects when the
// config leaves SlowDelay zero but chaos is otherwise on: long enough that
// the speculative monitor (2ms period) reliably fires a backup, short
// enough not to dominate a smoke run.
const DefaultSlowDelay = 60 * time.Millisecond

// RunExperiment replays the paper's Section 7.4 failure-recovery
// experiment: a fault-free baseline inversion, then the same inversion
// under a seeded fault schedule (node kills, optional restarts, one
// straggler, transient fetch errors), verifying the faulty run's inverse
// bit-identical to the baseline's.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	opts := core.DefaultOptions(cfg.Nodes)
	opts.NB = cfg.NB
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if cfg.Kill >= opts.Nodes {
		return nil, fmt.Errorf("chaos: cannot kill %d of %d nodes (at least one must survive)", cfg.Kill, opts.Nodes)
	}
	if cfg.SlowDelay == 0 {
		cfg.SlowDelay = DefaultSlowDelay
	}
	a := workload.DiagonallyDominant(cfg.N, cfg.Seed)

	baseline, err := runOnce(opts, a, nil)
	if err != nil {
		return nil, fmt.Errorf("chaos: baseline run: %w", err)
	}

	// The horizon is the logical-clock span of one inversion: each of the
	// pipeline's jobs contributes about Nodes attempt ticks per phase plus
	// fetch ticks, so jobs*nodes lands scheduled faults mid-pipeline.
	plan := RandomPlan(cfg.Seed, PlanConfig{
		Nodes:          opts.Nodes,
		Kills:          cfg.Kill,
		Horizon:        int64(core.PipelineJobs(cfg.N, cfg.NB)) * int64(opts.Nodes),
		Restart:        cfg.Restart,
		SlowDelay:      cfg.SlowDelay,
		FetchFailEvery: cfg.FetchFailEvery,
	})
	fs := dfs.New(opts.Nodes, dfs.DefaultReplication)
	eng := New(fs, plan)
	faulty, err := runOnceOn(opts, a, fs, eng)
	if err != nil {
		return nil, fmt.Errorf("chaos: faulty run: %w", err)
	}

	res := &ExperimentResult{
		Config:    cfg,
		Plan:      plan.String(),
		Baseline:  *baseline,
		Faulty:    *faulty,
		Chaos:     eng.Stats(),
		Identical: baseline.SHA256 == faulty.SHA256,
	}
	if baseline.ElapsedMs > 0 {
		res.Slowdown = faulty.ElapsedMs / baseline.ElapsedMs
	}
	return res, nil
}

// runOnce executes one inversion on a fresh cluster; eng may be nil for a
// fault-free run.
func runOnce(opts core.Options, a *matrix.Dense, eng *Engine) (*RunStats, error) {
	fs := dfs.New(opts.Nodes, dfs.DefaultReplication)
	return runOnceOn(opts, a, fs, eng)
}

func runOnceOn(opts core.Options, a *matrix.Dense, fs *dfs.FS, eng *Engine) (*RunStats, error) {
	cl := mapreduce.NewCluster(fs, opts.Nodes)
	// Speculative execution is on in both runs (as in Hadoop), so the
	// baseline pays the same monitoring and the slowdown isolates faults.
	cl.Speculative = true
	cl.SpeculativeRatio = 2
	cl.SpeculativeSlack = 8 * time.Millisecond
	if eng != nil {
		cl.Faults = eng
		if d := maxDelay(eng.plan); d > 0 {
			// The monitor must see the injected straggler as an outlier
			// well before it completes.
			if s := d / 8; s < cl.SpeculativeSlack {
				cl.SpeculativeSlack = s
			}
		}
	}
	p, err := core.NewPipelineOn(opts, fs, cl)
	if err != nil {
		return nil, err
	}
	//mrlint:allow determinism(time.Now) -- measures experiment wall time for the slowdown ratio; never enters the replayed inverse
	start := time.Now()
	inv, rep, err := p.Invert(a)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	resid, err := matrix.IdentityResidual(a, inv)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := matrix.WriteBinary(&buf, inv); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	return &RunStats{
		ElapsedMs:         float64(elapsed.Microseconds()) / 1000,
		Jobs:              rep.JobsRun,
		TaskFailures:      rep.TaskFailures,
		SpeculativeTasks:  rep.Speculative,
		LostMapOutputs:    rep.LostMapOutputs,
		FetchRetries:      rep.FetchRetries,
		Residual:          resid,
		SHA256:            hex.EncodeToString(sum[:]),
		ReplicasLost:      rep.FS.ReplicasLost,
		BytesReReplicated: rep.FS.BytesReReplicated,
	}, nil
}

func maxDelay(p Plan) time.Duration {
	var d time.Duration
	for _, ev := range p.Events {
		if ev.Kind == Slow && ev.Delay > d {
			d = ev.Delay
		}
	}
	return d
}

// SlowdownCurve runs the experiment across kill counts (the paper's §7.4
// x-axis), reusing one config otherwise.
func SlowdownCurve(cfg ExperimentConfig, kills []int) ([]*ExperimentResult, error) {
	out := make([]*ExperimentResult, 0, len(kills))
	for _, k := range kills {
		c := cfg
		c.Kill = k
		r, err := RunExperiment(c)
		if err != nil {
			return out, fmt.Errorf("chaos: kill=%d: %w", k, err)
		}
		out = append(out, r)
	}
	return out, nil
}
