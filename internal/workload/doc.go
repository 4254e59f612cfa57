// Package workload generates rate-controlled I/O request streams against
// an NVMe namespace: the sequential-write setup phase of §3.1, uniform and
// Zipf-distributed background traffic, and the alternating read pattern
// that underlies the hammering workloads built in internal/attack.
package workload
