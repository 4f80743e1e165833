package experiments

import (
	"reflect"
	"testing"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/core"
	"rhythm/internal/loadgen"
)

// TestCompareAllMatchesSerial is the fan-out fig15 and fig16 share, run
// short enough for the -race subset: a few comparisons on one deployed
// System (shared read-only by every worker, as are the diurnal pattern
// and its controller) must produce identical RunStats and rendered rows on
// one worker and on four, each equal to its cell's own Compare.
func TestCompareAllMatchesSerial(t *testing.T) {
	sys, err := sharedCtx.System("Redis")
	if err != nil {
		t.Fatal(err)
	}
	diurnal, _, _ := productionPattern(sharedCtx)
	patterns := []loadgen.Pattern{loadgen.Constant(0.25), loadgen.Constant(0.65), diurnal, diurnal}
	types := []bejobs.Type{bejobs.Wordcount, bejobs.StreamDRAM, bejobs.CPUStress, bejobs.LSTM}
	cells := make([]compareCell, len(patterns))
	for i := range cells {
		cells[i] = compareCell{sys, core.RunConfig{
			Pattern:  patterns[i],
			BETypes:  []bejobs.Type{types[i]},
			Duration: 10 * time.Second,
			Warmup:   2 * time.Second,
			Seed:     2020 ^ hash("compareAll"+string(types[i])),
		}}
	}
	run := func(jobs int) ([]*core.Comparison, [][]string) {
		cmps, err := NewContext(Options{Quick: true, Seed: 2020, Jobs: jobs}).compareAll(cells)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if len(cmps) != len(cells) {
			t.Fatalf("jobs=%d: %d comparisons for %d cells", jobs, len(cmps), len(cells))
		}
		rows := make([][]string, len(cmps))
		for i, cmp := range cmps {
			rows[i] = fig16Row(types[i], 0.65, cmp)
		}
		return cmps, rows
	}
	serial, serialRows := run(1)
	parallel, parallelRows := run(4)
	for i, c := range cells {
		direct, err := c.sys.Compare(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial[i], direct) {
			t.Errorf("cell %d: compareAll returned another cell's comparison", i)
		}
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("cell %d: jobs=4 RunStats differ from serial\nserial: %+v %+v\njobs=4: %+v %+v",
				i, *serial[i].Rhythm, *serial[i].Heracles, *parallel[i].Rhythm, *parallel[i].Heracles)
		}
		if !reflect.DeepEqual(serialRows[i], parallelRows[i]) {
			t.Errorf("cell %d: row %v, serial %v", i, parallelRows[i], serialRows[i])
		}
	}
}
