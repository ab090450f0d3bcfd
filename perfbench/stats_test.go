package main

import (
	"math"
	"testing"
)

func seq(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	return out
}

func TestPercentileNeedsTenSamplesAbove(t *testing.T) {
	// Nearest rank: p99 of 1..1000 is rank 990, leaving exactly 10 above.
	v, above, err := percentile(seq(1000), 99)
	if err != nil || v != 990 || above != 10 {
		t.Fatalf("p99 of 1000 samples = %d (%d above, %v), want 990 with 10 above", v, above, err)
	}
	// 999 samples: rank ceil(989.01) = 990, only 9 above.
	if _, above, err := percentile(seq(999), 99); err == nil || above != 9 {
		t.Fatalf("p99 of 999 samples accepted with %d above", above)
	}
	// net-serve's 1,200 samples per backend leave 12 above the p99.
	if v, above, err := percentile(seq(1200), 99); err != nil || v != 1188 || above != 12 {
		t.Fatalf("p99 of 1200 samples = %d (%d above, %v)", v, above, err)
	}
	if v, _, err := percentile(seq(1200), 50); err != nil || v != 600 {
		t.Fatalf("p50 of 1200 samples = %d (%v), want 600", v, err)
	}
	if _, _, err := percentile(nil, 50); err == nil {
		t.Fatal("percentile of no samples accepted")
	}
}

func TestGeomean(t *testing.T) {
	if g, err := geomean([]float64{1, 4}); err != nil || math.Abs(g-2) > 1e-12 {
		t.Fatalf("geomean(1,4) = %v, %v", g, err)
	}
	if g, err := geomean([]float64{1.1, 1.1, 1.1}); err != nil || math.Abs(g-1.1) > 1e-12 {
		t.Fatalf("geomean of equal values = %v, %v", g, err)
	}
	if g, err := geomean([]float64{0.5, 2, 8}); err != nil || math.Abs(g-2) > 1e-12 {
		t.Fatalf("geomean(0.5,2,8) = %v, %v", g, err)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {2, -1}} {
		if _, err := geomean(bad); err == nil {
			t.Fatalf("geomean(%v) accepted", bad)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}, {[]float64{7}, 7}} {
		if got := median(c.in); got != c.want {
			t.Fatalf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Fatal("median reordered its input")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	// root 0..100 holds A 10..40 and B 50..70; B holds C 55..60. A
	// second span named A elsewhere adds to A's total.
	all := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "A", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "B", Start: 50, End: 70},
		{ID: 4, Parent: 3, Name: "C", Start: 55, End: 60},
		{ID: 5, Name: "A", Start: 200, End: 207},
	}
	got := selfTimes(all)
	want := map[string]int64{"root": 50, "A": 37, "B": 15, "C": 5}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %d, want %d", k, got[k], v)
		}
	}
}

func TestSpansRecordParents(t *testing.T) {
	s := newSpans()
	endRoot := s.begin("iteration")
	endA := s.begin("A")
	endA()
	endB := s.begin("B")
	endB()
	endRoot()
	if len(s.all) != 3 || s.all[0].Parent != 0 || s.all[1].Parent != 1 || s.all[2].Parent != 1 {
		t.Fatalf("spans %+v", s.all)
	}
	for _, sp := range s.all {
		if sp.End < sp.Start {
			t.Fatalf("span %+v ends before it starts", sp)
		}
	}
	var off *spans
	off.begin("x")() // the untraced recorder is a no-op
}

func TestTable3ErrPct(t *testing.T) {
	// By hand: |110-100|/100 = 0.10 and |150-200|/200 = 0.25; mean 17.5%.
	// Cells the paper does not report are ignored.
	sim := cells{"Hypercall": {"ARM": 110, "x86": 150, "VHE": 1}}
	paper := cells{"Hypercall": {"ARM": 100, "x86": 200}}
	if got, err := table3ErrPct(sim, paper); err != nil || math.Abs(got-17.5) > 1e-12 {
		t.Fatalf("table3ErrPct = %v, %v; want 17.5", got, err)
	}
	if _, err := table3ErrPct(cells{"Hypercall": {"ARM": 110}}, paper); err == nil {
		t.Fatal("a missing simulated cell was accepted")
	}
	// The recorded measurements against the paper: the mean of the 24
	// relative errors of EXPERIMENTS.md's Table 3.
	got, err := table3ErrPct(table3Measured, table3Paper)
	if err != nil || math.Abs(got-4.329139498632956) > 1e-9 {
		t.Fatalf("recorded Table 3 error = %v, %v", got, err)
	}
}

func TestRNGIsSeeded(t *testing.T) {
	a, b, c := newGLParams(1), newGLParams(1), newGLParams(2)
	if a.acc != b.acc || a.iters != b.iters || a.table[7] != b.table[7] {
		t.Fatal("one seed gave two inputs")
	}
	if a.acc == c.acc && a.table[7] == c.table[7] {
		t.Fatal("two seeds gave one input")
	}
	in := newFCInputs(5)
	for _, w := range in.writes {
		if len(w) != fcWrites {
			t.Fatalf("write set of %d pages", len(w))
		}
		seen := map[int]bool{}
		for _, p := range w {
			if p < 0 || p >= fcPages || seen[p] {
				t.Fatalf("write set %v", w)
			}
			seen[p] = true
		}
	}
}

func TestRefScalePoolsProbes(t *testing.T) {
	// The median is over every probe of every iteration, not a median of
	// per-iteration medians: {4, 5, 6} and {5.3} pool to 5.15.
	its := []*iter{{refMS: []float64{4, 5, 6}}, {refMS: []float64{5.3}}}
	if got, want := refScale(its), refNominalMS/5.15; math.Abs(got-want) > 1e-12 {
		t.Fatalf("refScale = %v, want %v", got, want)
	}
	// Host times at the reference speed: a run whose probe is twice as
	// slow as nominal has its wall clock halved and its rates doubled.
	its = []*iter{{refMS: []float64{2 * refNominalMS}, wallS: 4, boardCycles: 8e6}}
	scale := refScale(its)
	for _, m := range endToEnd {
		want := map[string]float64{"wall_s": 2, "sim_mcps": 4}[m.Name]
		if got := m.value(its, scale); want != 0 && got != want {
			t.Errorf("%s = %v at scale %v, want %v", m.Name, got, scale, want)
		}
	}
	if s := refScale([]*iter{{}}); s != 1 {
		t.Fatalf("refScale with no probes = %v, want 1", s)
	}
}
