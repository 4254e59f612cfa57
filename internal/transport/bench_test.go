// Benchmark delegates to internal/perf so `go test -bench` and perfgate
// measure the same body under the same name. This file lives in the
// external test package because perf imports transport.
package transport_test

import (
	"testing"

	"ftlhammer/internal/perf"
)

func BenchmarkServerBatch(b *testing.B) { perf.BenchServerBatch(b) }
