package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func findDef(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.name == name {
			return d
		}
	}
	panic("no metric " + name)
}

func runs(v ...float64) result { return result{Value: median(v), Runs: v} }

func TestJudgeVerdicts(t *testing.T) {
	p50 := findDef(endToEnd, "op_p50_ms")        // lower is better
	thr := findDef(endToEnd, "throughput_ops_s") // higher is better
	cases := []struct {
		name       string
		def        metricDef
		base, head result
		want       string
	}{
		{"same", p50, runs(10, 10.1, 9.9), runs(10.2, 10, 10.1), unchanged},
		{"slower beyond the bound", p50, runs(10, 10.1, 9.9), runs(12, 12.1, 11.9), regressed},
		{"faster beyond the bound", p50, runs(10, 10.1, 9.9), runs(5, 5.1, 4.9), improved},
		{"noisy and within the noise", p50, runs(10, 12, 8), runs(10.5, 12.5, 9), unresolved},
		{"noisy base, head moved within it", p50, runs(10, 13, 8), runs(12, 12.1, 11.9), unresolved},
		{"noisy but far beyond it", p50, runs(10, 12, 8), runs(30, 33, 27), regressed},
		{"throughput fell", thr, runs(100, 101, 99), runs(85, 86, 84), regressed},
		{"throughput rose", thr, runs(100, 101, 99), runs(120, 121, 119), improved},
		{"single runs carry no spread", p50, result{Value: 10}, result{Value: 10.5}, unchanged},
	}
	for _, c := range cases {
		if _, got := judge(c.def, c.base, c.head); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if got := judgeFailures(result{Value: 0}, result{Value: 0.001}); got != regressed {
		t.Errorf("any rise in fail_frac: %s", got)
	}
	if got := judgeFailures(result{Value: 0}, result{Value: 0}); got != unchanged {
		t.Errorf("equal fail_frac: %s", got)
	}
}

func TestCompareListsCountDifferencesAndFailsOnRegression(t *testing.T) {
	doc := func(p50, jobs float64) *document {
		res := map[string]result{failFrac: {}}
		for _, d := range endToEnd {
			res[d.name] = runs(100, 101, 99)
		}
		res["op_p50_ms"] = runs(p50, p50*1.01, p50*0.99)
		for _, d := range perLayer {
			res[d.name] = result{Value: 1}
		}
		res["mapreduce.jobs_per_op"] = result{Value: jobs}
		return &document{Results: map[string]map[string]result{"invert-deep": res}}
	}
	dir := t.TempDir()
	write := func(name string, d *document) string {
		raw, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, worse := write("base.json", doc(30, 17)), write("same.json", doc(30.3, 17)), write("worse.json", doc(40, 15))

	var out bytes.Buffer
	if err := runCompare(&out, base, same); err != nil {
		t.Fatalf("same commit: %v\n%s", err, out.String())
	}
	if s := out.String(); strings.Contains(s, regressed) || strings.Contains(s, unresolved) ||
		!strings.Contains(s, "every exact metric is identical") {
		t.Errorf("same commit:\n%s", s)
	}
	out.Reset()
	if err := runCompare(&out, base, worse); err == nil {
		t.Errorf("a regression must fail the comparison:\n%s", out.String())
	}
	if s := out.String(); !strings.Contains(s, regressed) ||
		!strings.Contains(s, "count differs: invert-deep mapreduce.jobs_per_op: base 17, head 15") {
		t.Errorf("regression:\n%s", s)
	}
}
