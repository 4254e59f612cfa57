// Package cloud assembles the paper's §4.1 proof-of-concept environment: a
// multi-tenant server whose two VMs share one emulated NVMe SSD.
//
//   - The victim VM holds an ext4 filesystem on its namespace, with a root
//     user owning secrets (an SSH private key, a setuid sudo binary) and an
//     unprivileged attacker process that can only create/read/write its own
//     files (Figure 2's "victim VM").
//   - The attacker VM has privileged direct (SRIOV-style) access to its own
//     namespace — raw block reads/writes and trims at device speed.
//
// Both namespaces are partitions of the same logical space, so the shared
// FTL keeps both tenants' translations in one L2P table in one DRAM module:
// the cross-partition attack surface. The SSD itself is a
// fleet.DeviceSpec with two tenants; this package adds the victim's
// filesystem on top.
package cloud
