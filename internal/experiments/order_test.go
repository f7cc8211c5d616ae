package experiments

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// Sweep rows must not depend on goroutine scheduling: metrics.Summarize (and
// the Mann–Whitney p-values) depend on input order, so the drivers aggregate
// outcomes in job order, never completion order. These tests run each driver
// serially and on a 4-worker pool and compare every row field bit for bit.

// rowBits flattens a row into its fields' bit patterns. Floats go through
// math.Float64bits, so a NaN p-value compares equal to itself.
func rowBits(v reflect.Value, out []uint64) []uint64 {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = rowBits(v.Field(i), out)
		}
	case reflect.Float64:
		out = append(out, math.Float64bits(v.Float()))
	case reflect.Int:
		out = append(out, uint64(v.Int()))
	default:
		panic(fmt.Sprintf("rowBits: unhandled field kind %s", v.Kind()))
	}
	return out
}

// compareRows fails unless both row slices are bit-identical.
func compareRows[R any](t *testing.T, label string, serial, pooled []R) {
	t.Helper()
	if len(serial) != len(pooled) {
		t.Fatalf("%s: %d rows serially vs %d pooled", label, len(serial), len(pooled))
	}
	for i := range serial {
		want := rowBits(reflect.ValueOf(serial[i]), nil)
		got := rowBits(reflect.ValueOf(pooled[i]), nil)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: row %d differs between 1 and 4 workers:\n  serial %+v\n  pooled %+v",
				label, i, serial[i], pooled[i])
		}
	}
}

func orderOptions(workers int) Options {
	opts := smallOptions()
	opts.Seeds = 3
	opts.Workers = workers
	return opts
}

func TestRunSweepRowsIndependentOfWorkers(t *testing.T) {
	serial, err := RunSweep(orderOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := RunSweep(orderOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	compareRows(t, "sweep", serial, pooled)
}

func TestRunRecoverySweepRowsIndependentOfWorkers(t *testing.T) {
	serial, err := RunRecoverySweep(orderOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := RunRecoverySweep(orderOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	compareRows(t, "recovery", serial, pooled)
}

func TestRunDelaySweepRowsIndependentOfWorkers(t *testing.T) {
	opts := func(workers int) Options {
		o := orderOptions(workers)
		o.Sizes = []int{30}
		return o
	}
	serial, err := RunDelaySweep(opts(1))
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := RunDelaySweep(opts(4))
	if err != nil {
		t.Fatal(err)
	}
	compareRows(t, "delay", serial, pooled)
}
