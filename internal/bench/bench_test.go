package bench

import (
	"io"
	"strings"
	"testing"
)

// quickCfg returns a tiny configuration so every figure finishes fast.
func quickCfg() Config {
	return Config{Scale: 0.02, Seed: 1, Quick: true, Out: io.Discard}
}

func TestFig11aQuick(t *testing.T) {
	c := quickCfg()
	pts, err := c.Fig11a()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5*5 { // 5 batch sizes × 5 systems
		t.Errorf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.QPS <= 0 {
			t.Errorf("%v %v: zero throughput", p.X, p.System)
		}
	}
}

func TestFig11bQuick(t *testing.T) {
	c := quickCfg()
	pts, err := c.Fig11b()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5*5 {
		t.Errorf("points = %d", len(pts))
	}
}

func TestFig11cQuick(t *testing.T) {
	c := quickCfg()
	pts, err := c.Fig11c()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6*5 {
		t.Errorf("points = %d", len(pts))
	}
}

func TestFig11dQuick(t *testing.T) {
	c := quickCfg()
	pts, err := c.Fig11d()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5*5 {
		t.Errorf("points = %d", len(pts))
	}
}

func TestFig12Quick(t *testing.T) {
	c := quickCfg()
	pts, err := c.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2*4 {
		t.Errorf("points = %d", len(pts))
	}
}

func TestFig13Quick(t *testing.T) {
	var sb strings.Builder
	c := quickCfg()
	c.Out = &sb
	rows, err := c.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*2*4 { // 3 sizes × 2 reps × 4 policies
		t.Errorf("rows = %d", len(rows))
	}
	if !strings.Contains(sb.String(), "summary:") {
		t.Error("missing summary line")
	}
}

func TestFig14Quick(t *testing.T) {
	c := quickCfg()
	rows, err := c.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*3 {
		t.Errorf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.JoinTuples <= 0 {
			t.Errorf("overlap %d group %d: zero tuples", r.OverlapPct, r.GroupSize)
		}
	}
}

func TestFig16Quick(t *testing.T) {
	c := quickCfg()
	series, err := c.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Measured) == 0 || len(s.Measured) != len(s.Estimated) {
			t.Errorf("C=%d R=%d: malformed series", s.Chains, s.Relations)
		}
		if s.GreedyRatio <= 0 {
			t.Errorf("C=%d R=%d: missing greedy ratio", s.Chains, s.Relations)
		}
	}
}

func TestFig17Quick(t *testing.T) {
	c := quickCfg()
	rows, err := c.Fig17()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Elapsed <= 0 {
			t.Errorf("%s: zero elapsed", r.Name)
		}
	}
}

func TestFig18Quick(t *testing.T) {
	c := quickCfg()
	rows, err := c.Fig18()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFig19Quick(t *testing.T) {
	c := quickCfg()
	rows, err := c.Fig19()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Speedup != 1 {
		t.Errorf("baseline speedup = %v", rows[0].Speedup)
	}
}

func TestFig20Quick(t *testing.T) {
	c := quickCfg()
	rows, err := c.Fig20()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*2 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestSWOQuick(t *testing.T) {
	c := quickCfg()
	rows, err := c.SWO()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestCorrStress(t *testing.T) {
	c := quickCfg()
	res, err := c.CorrStress()
	if err != nil {
		t.Fatal(err)
	}
	if res.Learned <= 0 || res.Greedy <= 0 {
		t.Fatal("zero tuple counts")
	}
	// The learned policy must beat the selectivity-global policy on the
	// correlation trap it was designed to expose.
	if res.Ratio < 1.05 {
		t.Errorf("greedy/learned = %.2f, expected a clear learned win", res.Ratio)
	}
}

func TestBatching(t *testing.T) {
	c := quickCfg()
	res, err := c.Batching()
	if err != nil {
		t.Fatal(err)
	}
	if res.ClusteredSimilarity <= res.FIFOSimilarity {
		t.Errorf("clustering did not raise similarity: %.3f vs %.3f",
			res.ClusteredSimilarity, res.FIFOSimilarity)
	}
	if res.FIFOElapsed <= 0 || res.ClusteredElapsed <= 0 {
		t.Error("zero elapsed")
	}
}
