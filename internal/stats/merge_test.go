package stats

import "testing"

func TestSampleMerge(t *testing.T) {
	// Merging per-shard samples in shard order must reproduce the serial
	// sample exactly — order included, so percentiles agree.
	var serial Sample
	shards := make([]Sample, 4)
	x := 0.0
	for s := range shards {
		for i := 0; i < 5; i++ {
			serial.Add(x)
			shards[s].Add(x)
			x += 1.5
		}
	}
	var merged Sample
	for s := range shards {
		merged.Merge(&shards[s])
	}
	if merged.N() != serial.N() {
		t.Fatalf("merged N=%d, want %d", merged.N(), serial.N())
	}
	for _, p := range []float64{0, 25, 50, 99, 100} {
		if merged.Percentile(p) != serial.Percentile(p) {
			t.Fatalf("p%v: merged %v, serial %v", p, merged.Percentile(p), serial.Percentile(p))
		}
	}
	// Merging nil and empty samples is a no-op.
	n := merged.N()
	merged.Merge(nil)
	merged.Merge(&Sample{})
	if merged.N() != n {
		t.Fatal("nil/empty merge changed the sample")
	}
}
