package harness

import (
	"slices"
	"testing"
)

// TestExperimentOrder pins the registry paexp's -run, -list and "all"
// read: the ids and their order are the order of paexp's output.
func TestExperimentOrder(t *testing.T) {
	want := []string{"fig3a", "fig3b", "fig3c", "fig7", "fig8", "table1", "table2",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"figmultidev", "figpipeline"}
	var got []string
	for _, e := range Experiments {
		got = append(got, e.ID)
		if e.Schemes != slices.Contains([]string{"fig7", "fig8", "table1", "table2", "fig9"}, e.ID) {
			t.Errorf("%s: Schemes = %v", e.ID, e.Schemes)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("experiment ids = %v, want %v", got, want)
	}
	if all := SelectExperiments("all"); len(all) != len(want) {
		t.Fatalf("all selects %d experiments, want %d", len(all), len(want))
	}
	if e := SelectExperiments("fig13"); len(e) != 1 || e[0].ID != "fig13" {
		t.Fatalf("fig13 selects %v", e)
	}
	if e := SelectExperiments("figshards"); e != nil {
		t.Fatalf("figshards selects %v", e)
	}
}
