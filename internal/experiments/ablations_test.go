package experiments

import (
	"strings"
	"testing"
	"time"

	"viper/internal/vformat"
)

func TestNotifyAblationPushBeatsPolling(t *testing.T) {
	res, err := RunNotifyAblation(200, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 { // push + 3 intervals
		t.Fatalf("rows = %d", len(res.Rows))
	}
	push := res.Rows[0]
	if push.MeanDelay != 0 {
		t.Fatalf("push mean delay = %v", push.MeanDelay)
	}
	prev := time.Duration(0)
	for _, row := range res.Rows[1:] {
		if row.MeanDelay <= prev {
			t.Fatalf("poll delays must grow with interval: %+v", res.Rows)
		}
		if row.MaxDelay < row.MeanDelay {
			t.Fatalf("max < mean in %+v", row)
		}
		prev = row.MeanDelay
	}
	// The 1 ms polling floor: the mean delay is about half the interval.
	oneMs := res.Rows[1]
	if oneMs.MeanDelay < 200*time.Microsecond || oneMs.MeanDelay > time.Millisecond {
		t.Fatalf("1ms polling mean delay = %v, want ≈0.5ms", oneMs.MeanDelay)
	}
	if !strings.Contains(res.Format(), "discovery latency") {
		t.Fatal("format malformed")
	}
	if _, err := RunNotifyAblation(0, nil, 1); err == nil {
		t.Fatal("zero updates must error")
	}
}

func TestQuantAblationAccuracyAndLatency(t *testing.T) {
	res, err := RunQuantAblation(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var f64, f32, f16 QuantRow
	for _, row := range res.Rows {
		switch row.Precision {
		case vformat.PrecFloat64:
			f64 = row
		case vformat.PrecFloat32:
			f32 = row
		case vformat.PrecFloat16:
			f16 = row
		}
	}
	if !(f16.Latency < f32.Latency && f32.Latency < f64.Latency) {
		t.Fatalf("latency must shrink with precision: %v %v %v", f64.Latency, f32.Latency, f16.Latency)
	}
	// Serving accuracy must match the producer for f64 and stay close
	// for the lossy precisions.
	if f64.Accuracy != res.TrainAccuracy {
		t.Fatalf("f64 accuracy %v != producer %v", f64.Accuracy, res.TrainAccuracy)
	}
	if f32.Accuracy < res.TrainAccuracy-0.02 {
		t.Fatalf("f32 accuracy dropped too much: %v vs %v", f32.Accuracy, res.TrainAccuracy)
	}
	if f16.Accuracy < res.TrainAccuracy-0.05 {
		t.Fatalf("f16 accuracy dropped too much: %v vs %v", f16.Accuracy, res.TrainAccuracy)
	}
}

func TestFanoutAblationScalesLinearly(t *testing.T) {
	res, err := RunFanoutAblation(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].SaveTotal <= res.Rows[i-1].SaveTotal {
			t.Fatalf("save cost must grow with consumers: %+v", res.Rows)
		}
	}
	// Roughly linear in the transfer component.
	r1, r4 := res.Rows[0].SaveTotal, res.Rows[3].SaveTotal
	if ratio := float64(r4) / float64(r1); ratio < 2 || ratio > 5 {
		t.Fatalf("4:1 consumer cost ratio = %.2f", ratio)
	}
	if _, err := RunFanoutAblation(0); err == nil {
		t.Fatal("zero consumers must error")
	}
}
