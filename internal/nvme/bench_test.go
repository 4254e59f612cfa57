// Benchmarks delegate to internal/perf so `go test -bench` and perfgate
// measure the same bodies under the same names. This file lives in the
// external test package because perf imports nvme.
package nvme_test

import (
	"testing"

	"ftlhammer/internal/perf"
)

func BenchmarkDoContextRead(b *testing.B)  { perf.BenchDoContextRead(b) }
func BenchmarkDoContextWrite(b *testing.B) { perf.BenchDoContextWrite(b) }
func BenchmarkRobustRead(b *testing.B)     { perf.BenchRobustRead(b) }
func BenchmarkDoBatch(b *testing.B)        { perf.BenchDoBatch(b) }
