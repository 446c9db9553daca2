package exp

import (
	goruntime "runtime"
	"testing"

	"fedgpo/internal/runtime"
)

// BenchmarkWarmBatch is the warm layer's cost per cell: every cell a
// cold Tiny report simulated, run as one batch over the disk cache
// that report filled. Each cell is a cache hit: its key, the record
// read and decode, and its Outcome derived again (runSpecs); nothing
// is simulated or encoded. It reports ns/cell and allocs/cell.
func BenchmarkWarmBatch(b *testing.B) {
	dir := b.TempDir()
	cache, err := runtime.NewCache(dir)
	if err != nil {
		b.Fatal(err)
	}
	cold := &recordBackend{Backend: runtime.NewPoolBackend(1)}
	opts := Tiny().WithRuntime(NewRuntimeWithBackend(cold, cache))
	for _, e := range Registry() {
		e.Run(opts)
	}
	specs := make([]JobSpec, len(cold.jobs))
	for i, j := range cold.jobs {
		if specs[i], err = DecodeJobSpec(j.Payload); err != nil {
			b.Fatal(err)
		}
	}

	rt, err := NewRuntime(1, dir)
	if err != nil {
		b.Fatal(err)
	}
	rt.runSpecs(specs) // the first lookup lists the directory
	if sims := rt.Metrics().Counters.SimsExecuted; sims != 0 {
		b.Fatalf("warm batch simulated %d of %d cells", sims, len(specs))
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	batches := 0
	for b.Loop() {
		rt.runSpecs(specs)
		batches++
	}
	goruntime.ReadMemStats(&after)
	cells := float64(batches * len(specs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cells, "ns/cell")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/cells, "allocs/cell")
}
