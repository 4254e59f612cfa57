// Package transport serves the simulated SSD over the network: an
// NVMe-over-TCP-style binary protocol that exposes an *nvme.Device to
// remote clients, giving the reproduction the real serving boundary the
// paper's threat model assumes (co-located tenants hammering one shared
// device through an I/O interface with queues, batching and backpressure).
//
// The Server accepts TCP connections; each connection is one session,
// bound at handshake time to one namespace and one access path — one
// tenant. Sessions submit length-prefixed command batches (the doorbell),
// bounded by a per-session inflight window. Each session runs on one
// goroutine that reads a batch, executes it under the server's device
// mutex, which carries the device's virtual clock from session to
// session, and writes its completions before it reads the next. So the
// simulated device state stays strictly single-owner, and a given arrival
// order of commands produces bit-identical device state no matter how
// many sessions or worker threads are involved.
//
// The Client offers an NVMe-style queue pair over the wire (Submit /
// Ring / Completions; a Ring runs as one nvme.Device.DoBatch on the
// server) plus context-aware convenience calls, and reconstructs the
// device's typed errors (nvme.ErrTimeout, nvme.ErrReadOnly, ...) from
// wire status codes so errors.Is works across the network boundary.
//
// cmd/hammerd serves a device; cmd/hammerload is the matching closed-loop
// multi-tenant load generator. docs/SERVING.md specifies the framing, the
// session lifecycle, backpressure and the flag reference.
package transport
