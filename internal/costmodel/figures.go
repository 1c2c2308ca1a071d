package costmodel

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// Series generators for the paper's evaluation artifacts. Each returns the
// rows/points the corresponding table or figure plots, ready for printing
// by cmd/mrbench or the benchmark harness.

// Fig6Point is one point of Figure 6: strong scalability.
type Fig6Point struct {
	Matrix string
	Nodes  int
	Time   time.Duration
	Ideal  time.Duration // T(1)/nodes, the purple reference line
}

// Fig6Nodes is the node-count sweep of Figure 6's x axis.
var Fig6Nodes = []int{1, 2, 4, 8, 16, 32, 64}

// Fig6 computes the Figure 6 series for matrices M1, M2, M3 on medium
// instances with the paper's nb.
func Fig6() []Fig6Point {
	var out []Fig6Point
	for _, name := range []string{"M1", "M2", "M3"} {
		spec, err := workload.SpecByName(name)
		if err != nil {
			panic(err)
		}
		t1 := OursTime(NewCluster(Medium, 1), spec.Order, workload.PaperNB, AllOpts)
		for _, m0 := range Fig6Nodes {
			t := OursTime(NewCluster(Medium, m0), spec.Order, workload.PaperNB, AllOpts)
			out = append(out, Fig6Point{
				Matrix: name,
				Nodes:  m0,
				Time:   t,
				Ideal:  t1 / time.Duration(m0),
			})
		}
	}
	return out
}

// Fig7Point is one point of Figure 7: the ratio of unoptimized to
// optimized running time for one disabled optimization on matrix M5.
type Fig7Point struct {
	Optimization string // "separate-files" or "block-wrap"
	Nodes        int
	Ratio        float64 // T_unopt / T_opt, >= 1 when the optimization helps
}

// Fig7Nodes is Figure 7's x axis (4-64 nodes, Section 7.3).
var Fig7Nodes = []int{4, 8, 16, 32, 64}

// Fig7 computes both ablation series of Figure 7.
func Fig7() []Fig7Point {
	spec, err := workload.SpecByName("M5")
	if err != nil {
		panic(err)
	}
	var out []Fig7Point
	for _, m0 := range Fig7Nodes {
		c := NewCluster(Medium, m0)
		opt := OursTime(c, spec.Order, workload.PaperNB, AllOpts).Seconds()

		noSep := AllOpts
		noSep.SeparateFiles = false
		out = append(out, Fig7Point{
			Optimization: "separate-files",
			Nodes:        m0,
			Ratio:        OursTime(c, spec.Order, workload.PaperNB, noSep).Seconds() / opt,
		})
		noWrap := AllOpts
		noWrap.BlockWrap = false
		out = append(out, Fig7Point{
			Optimization: "block-wrap",
			Nodes:        m0,
			Ratio:        OursTime(c, spec.Order, workload.PaperNB, noWrap).Seconds() / opt,
		})
	}
	return out
}

// Fig8Point is one point of Figure 8: T_scalapack / T_ours.
type Fig8Point struct {
	Matrix string
	Nodes  int
	Ratio  float64
}

// Fig8Nodes is Figure 8's x axis.
var Fig8Nodes = []int{1, 2, 4, 8, 16, 32, 64}

// Fig8 computes the Figure 8 series for M1-M3 on medium instances. Points
// where the in-memory ScaLAPACK working set exceeds node RAM are omitted:
// each curve starts at the node count where the baseline can run at all
// (M1 from 4 nodes, M2 from 8, M3 from 16 on 3.7 GB instances).
func Fig8() []Fig8Point {
	var out []Fig8Point
	for _, name := range []string{"M1", "M2", "M3"} {
		spec, err := workload.SpecByName(name)
		if err != nil {
			panic(err)
		}
		for _, m0 := range Fig8Nodes {
			c := NewCluster(Medium, m0)
			if !scalapackFeasible(c, spec.Order) {
				continue
			}
			ours := OursTime(c, spec.Order, workload.PaperNB, AllOpts).Seconds()
			scal := scalapackTime(c, spec.Order).Seconds()
			out = append(out, Fig8Point{Matrix: name, Nodes: m0, Ratio: scal / ours})
		}
	}
	return out
}

// Sec74Row is one run of the Section 7.4/7.5 large-matrix experiment.
type Sec74Row struct {
	System  string
	Cluster string
	Time    time.Duration
	Paper   string // the paper's reported result, for side-by-side output
}

// Sec74 reproduces the M4 (n = 102400) runs: our pipeline and ScaLAPACK on
// 128 large and 64 medium instances, plus the failure-recovery run.
func Sec74() []Sec74Row {
	spec, err := workload.SpecByName("M4")
	if err != nil {
		panic(err)
	}
	large128 := NewCluster(Large, 128)
	medium64 := NewCluster(Medium, 64)

	ours128 := OursTime(large128, spec.Order, workload.PaperNB, AllOpts)
	// Section 7.4's first run: one triangular-inversion mapper died and
	// was rescheduled after another mapper finished — roughly one extra
	// mapper's worth of inversion work, serial at the end of the job.
	inv := oursInversion(spec.Order, large128.Nodes)
	retry := secs((inv.Mults + inv.Adds) / float64(large128.Nodes) / (float64(large128.Node.Cores) * large128.Node.Flops))

	return []Sec74Row{
		{System: "ours", Cluster: "128 large", Time: ours128, Paper: "~5 h"},
		{System: "ours+failure", Cluster: "128 large", Time: ours128 + retry, Paper: "~8 h"},
		{System: "ours", Cluster: "64 medium", Time: OursTime(medium64, spec.Order, workload.PaperNB, AllOpts), Paper: "~15 h"},
		{System: "scalapack", Cluster: "128 large", Time: scalapackTime(large128, spec.Order), Paper: "~8 h"},
		{System: "scalapack", Cluster: "64 medium", Time: scalapackTime(medium64, spec.Order), Paper: ">48 h"},
	}
}

// Table1Rows renders Table 1 for a concrete cluster size, with the
// symbolic formulas alongside evaluated element counts.
func Table1Rows(n, m0 int) []string {
	ours := OursLU(n, m0)
	scal := scalapackLU(n, m0)
	return []string{
		fmt.Sprintf("Our Algorithm | write 3/2 n^2 = %.3g | read (l+3) n^2 = %.3g | transfer (l+3) n^2 = %.3g | mults n^3/3 = %.3g | adds n^3/3 = %.3g",
			ours.Write, ours.Read, ours.Transfer, ours.Mults, ours.Adds),
		fmt.Sprintf("ScaLAPACK     | write n^2 = %.3g | read n^2 = %.3g | transfer 2/3 m0 n^2 = %.3g | mults n^3/3 = %.3g | adds n^3/3 = %.3g",
			scal.Write, scal.Read, scal.Transfer, scal.Mults, scal.Adds),
	}
}

// Table2Rows renders Table 2 for a concrete cluster size.
func Table2Rows(n, m0 int) []string {
	ours := oursInversion(n, m0)
	scal := scalapackInversion(n, m0)
	return []string{
		fmt.Sprintf("Our Algorithm | write 2 n^2 = %.3g | read l n^2 = %.3g | transfer (l+2) n^2 = %.3g | mults 2n^3/3 = %.3g | adds 2n^3/3 = %.3g",
			ours.Write, ours.Read, ours.Transfer, ours.Mults, ours.Adds),
		fmt.Sprintf("ScaLAPACK     | write n^2 = %.3g | read m0 n^2 = %.3g | transfer m0 n^2 = %.3g | mults 2n^3/3 = %.3g | adds 2n^3/3 = %.3g",
			scal.Write, scal.Read, scal.Transfer, scal.Mults, scal.Adds),
	}
}

// Table3Rows renders Table 3 from the workload descriptors plus the job
// count law.
func Table3Rows() []string {
	var out []string
	for _, s := range workload.Table3 {
		out = append(out, fmt.Sprintf("%s | order %6d | %5.2f G elements | text %5.1f GB | binary %5.1f GB | jobs %2d (computed %2d)",
			s.Name, s.Order, s.Elements, s.TextGB, s.BinaryGB, s.Jobs, core.PipelineJobs(s.Order, workload.PaperNB)))
	}
	return out
}

// FormatDuration renders a duration the way the paper reports runtimes.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%.1f h", d.Hours())
	case d >= time.Minute:
		return fmt.Sprintf("%.1f min", d.Minutes())
	default:
		return fmt.Sprintf("%.1f s", d.Seconds())
	}
}

// SummarizeFig6 renders Figure 6 as aligned text rows.
func SummarizeFig6(points []Fig6Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %6s %14s %14s %8s\n", "mat", "nodes", "time", "ideal", "t/ideal")
	for _, p := range points {
		fmt.Fprintf(&b, "%-4s %6d %14s %14s %8.2f\n",
			p.Matrix, p.Nodes, FormatDuration(p.Time), FormatDuration(p.Ideal),
			p.Time.Seconds()/p.Ideal.Seconds())
	}
	return b.String()
}
