// Package fleet serves many independent simulated SSDs behind one
// frontend, turning the single-device daemon into a shard-per-device
// cluster: each member owns its own sim.World, nvme.Device and transport
// server, and a routing frontend speaks the unmodified transport protocol
// to clients, resolving the hello's namespace ID as a fleet-wide tenant
// ID and splicing the session to the member that owns it.
//
// A placement table (spread, pack or pinned policies) decides which
// tenants share a device — and therefore a DRAM chip, which is the
// paper's blast radius: co-placed tenants are exposed to each other's
// rowhammering, tenants on different members are physically unreachable.
//
// Live migration moves one member's complete state to a fresh device —
// in-process or to another hammerd instance — via drain → checkpoint →
// transfer → restore → re-route, with the nvme state hash proving the
// restored device byte-identical to the drained one. Routes flip to a
// refusing state before the drain begins, so a session is refused or
// re-routed during a transfer, never silently misrouted.
//
// DeviceSpec is also the repository's one device builder: every
// simulated SSD, the cloud testbed's included, is assembled by
// DeviceSpec.Build from a profile preset (Preset) and explicit DRAM,
// flash and FTL overrides (docs/ARCHITECTURE.md, "Device assembly").
//
// See docs/FLEET.md for the topology, the migration protocol and its
// failure modes.
package fleet
