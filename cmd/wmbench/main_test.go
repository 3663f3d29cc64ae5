package main

import "testing"

// TestStatejsonEncodeBundleStable: two runs of the statejson_encode entry
// report the same bundle_bytes, however many iterations each run's timing
// loop took.
func TestStatejsonEncodeBundleStable(t *testing.T) {
	var got [2]float64
	for i := range got {
		e, err := statejsonEncodeEntry()
		if err != nil {
			t.Fatal(err)
		}
		got[i] = e.Metrics["bundle_bytes"]
	}
	if got[0] <= 0 || got[0] != got[1] {
		t.Errorf("bundle_bytes %v then %v, want one positive size", got[0], got[1])
	}
}
