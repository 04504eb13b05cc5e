package comm

import (
	"reflect"
	"testing"
)

func TestSurvivorConfigs(t *testing.T) {
	for _, tc := range []struct {
		p    int
		want []Strategy
	}{
		{255, []Strategy{{Ng: 16, Nc: 15, Winograd: true}, {Ng: 4, Nc: 63, Winograd: true}, {Ng: 1, Nc: 255, Winograd: true}}},
		{15, []Strategy{{Ng: 4, Nc: 3, Winograd: true}, {Ng: 1, Nc: 15, Winograd: true}}},
		{3, []Strategy{{Ng: 1, Nc: 3, Winograd: true}}},
		{1, []Strategy{{Ng: 1, Nc: 1, Winograd: true}}},
	} {
		if got := SurvivorConfigs(tc.p); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SurvivorConfigs(%d) = %v, want %v", tc.p, got, tc.want)
		}
	}
	// For healthy divisible counts the menus coincide.
	for _, p := range []int{16, 64, 256} {
		if got, want := SurvivorConfigs(p), DefaultConfigs(p); !reflect.DeepEqual(got, want) {
			t.Errorf("SurvivorConfigs(%d) = %v, want DefaultConfigs = %v", p, got, want)
		}
	}
	// Never proposes a grid larger than the survivor pool.
	for p := 1; p <= 300; p++ {
		for _, cfg := range SurvivorConfigs(p) {
			if cfg.Ng*cfg.Nc > p {
				t.Fatalf("SurvivorConfigs(%d) proposes (%d,%d) needing %d workers",
					p, cfg.Ng, cfg.Nc, cfg.Ng*cfg.Nc)
			}
		}
	}
}
