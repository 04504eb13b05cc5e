package figures

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mptwino/internal/parallel"
)

// TestAllFiguresProduceTablesAndMetrics runs every catalog generator
// (including the slow numeric ones) and checks structural validity and
// that each builds the figure its entry names.
func TestAllFiguresProduceTablesAndMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("figures regeneration is slow")
	}
	seen := map[string]bool{}
	for _, e := range Catalog() {
		r := e.Build()
		if r.ID != e.ID {
			t.Fatalf("catalog entry %q builds figure %q", e.ID, r.ID)
		}
		if r.ID == "" || r.Title == "" {
			t.Fatalf("figure missing identity: %+v", r)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate figure id %q", r.ID)
		}
		seen[r.ID] = true
		if len(strings.TrimSpace(r.Table)) == 0 {
			t.Fatalf("%s: empty table", r.ID)
		}
		if len(r.Metrics) == 0 {
			t.Fatalf("%s: no metrics", r.ID)
		}
		for k, v := range r.Metrics {
			if v != v { // NaN
				t.Fatalf("%s: metric %q is NaN", r.ID, k)
			}
		}
		if !strings.Contains(Render(r), r.ID) {
			t.Fatalf("%s: Render missing id", r.ID)
		}
	}
	want := []string{"table1", "table2", "table3", "table4",
		"fig01", "fig06", "fig07", "fig12", "fig14", "fig15", "fig16", "fig17", "fig18", "noc"}
	for _, id := range want {
		if !seen[id] {
			t.Fatalf("figure %s missing from Catalog()", id)
		}
	}
}

var update = flag.Bool("update", false, "rewrite the goldens under testdata")

// TestFastFiguresDeterministic pins the analytic figures: Fig. 1/6/7/15/16/
// 17/18 render byte for byte as testdata/figures_golden.txt, the output of
// `figures -only fig01,fig06,fig07,fig15,fig16,fig17,fig18`, with the same
// metrics, at host worker counts 1, 2 and 8. The numeric figures are
// seeded and tested in their packages. -update rewrites the golden.
func TestFastFiguresDeterministic(t *testing.T) {
	golden := filepath.Join("testdata", "figures_golden.txt")
	defer parallel.SetDefaultWorkers(parallel.DefaultWorkers())
	var ref []Result
	for _, workers := range []int{1, 2, 8} {
		parallel.SetDefaultWorkers(workers)
		var rs []Result
		var got strings.Builder
		for _, gen := range []func() Result{Fig01, Fig06, Fig07, Fig15, Fig16, Fig17, Fig18} {
			r := gen()
			rs = append(rs, r)
			got.WriteString(Render(r))
		}
		if *update && ref == nil {
			if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("read golden (run with -update to create): %v", err)
		}
		if got.String() != string(want) {
			t.Errorf("workers=%d: figures drifted from %s\n--- got ---\n%s", workers, golden, got.String())
		}
		if ref == nil {
			ref = rs
			continue
		}
		for i, r := range rs {
			if !reflect.DeepEqual(r.Metrics, ref[i].Metrics) {
				t.Errorf("workers=%d: %s metrics differ from workers=1", workers, r.ID)
			}
		}
	}
}

// TestFig15HeadlineShape asserts the qualitative Fig. 15 claims on the
// regenerated metrics.
func TestFig15HeadlineShape(t *testing.T) {
	r := Fig15()
	if r.Metrics["avg_speedup_wmpfull"] < 1.5 {
		t.Fatalf("w_mp++ average speedup %v too small", r.Metrics["avg_speedup_wmpfull"])
	}
	if r.Metrics["late_speedup_wmppred"] <= r.Metrics["mid_speedup_wmppred"] {
		t.Fatal("late layers must gain more than mid layers")
	}
}

// TestFig17HeadlineShape asserts who-wins ordering for the whole-CNN
// comparison.
func TestFig17HeadlineShape(t *testing.T) {
	r := Fig17()
	if r.Metrics["avg_wmpfull_over_wdp"] < 1.5 {
		t.Fatalf("w_mp++/w_dp = %v, want > 1.5", r.Metrics["avg_wmpfull_over_wdp"])
	}
	if r.Metrics["avg_wmpfull_over_8gpu"] < 2 {
		t.Fatalf("w_mp++/8-GPU = %v, want > 2", r.Metrics["avg_wmpfull_over_8gpu"])
	}
	// GPU scaling must be sub-linear for every network.
	for _, net := range []string{"WRN-40-10", "ResNet-34", "FractalNet-4x4"} {
		if r.Metrics[net+"/gpu8"] >= 8*r.Metrics[net+"/gpu1"] {
			t.Fatalf("%s: GPU scaling not sub-linear", net)
		}
	}
}

// TestFig12NoFalseNegativesAnywhere: every quantization setting in the
// regenerated Fig. 12 must report zero false negatives.
func TestFig12NoFalseNegatives(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := Fig12()
	for k, v := range r.Metrics {
		if strings.HasSuffix(k, "_false_neg") && v != 0 {
			t.Fatalf("%s = %v", k, v)
		}
	}
	// 1-D must beat 2-D at the headline settings.
	for _, ds := range []string{"cifar", "imagenet"} {
		if r.Metrics[ds+"_gather1D"] <= r.Metrics[ds+"_gather2D"] {
			t.Fatalf("%s: 1-D skip not better than 2-D", ds)
		}
	}
}

// TestFig14Equivalence: the regenerated modified-join run must show
// negligible trajectory divergence.
func TestFig14Equivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := Fig14()
	if r.Metrics["max_loss_diff"] > 1e-4 {
		t.Fatalf("join trajectories diverged by %v", r.Metrics["max_loss_diff"])
	}
}

// TestNoCValidationRatios: the flit-level simulator must sit at or above
// the analytic bounds, within the documented factors, and the validation
// renders byte for byte as testdata/noc_golden.txt, the output of
// `figures -only noc`. -update rewrites the golden.
func TestNoCValidationRatios(t *testing.T) {
	r := NoCValidation()
	if r.Metrics["ring_ratio"] < 0.8 || r.Metrics["ring_ratio"] > 1.5 {
		t.Fatalf("ring ratio %v outside [0.8,1.5]", r.Metrics["ring_ratio"])
	}
	if r.Metrics["a2a_ratio"] < 1.0 || r.Metrics["a2a_ratio"] > 4.0 {
		t.Fatalf("all-to-all ratio %v outside [1,4]", r.Metrics["a2a_ratio"])
	}
	golden := filepath.Join("testdata", "noc_golden.txt")
	got := Render(r)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("NoC validation drifted from %s\n--- got ---\n%s", golden, got)
	}
}

func TestIsqrt(t *testing.T) {
	for _, c := range []struct{ in, want int }{{1, 1}, {4, 2}, {16, 4}, {256, 16}, {5, 3}} {
		if got := isqrt(c.in); got != c.want {
			t.Fatalf("isqrt(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}
