// Package ext4 implements a simplified but real on-disk filesystem with
// the two ext4 properties the paper's exploit (§4.2) contrasts:
//
//   - files may use the legacy direct/indirect block addressing scheme
//     (12 direct pointers, then single/double/triple indirect blocks).
//     Indirect blocks are raw arrays of block pointers with NO integrity
//     protection — users may opt in per file, and a redirected read of an
//     indirect block is accepted silently;
//   - files may instead use extent trees whose on-disk nodes carry a
//     CRC-32C checksum, so a redirected extent block fails loudly.
//
// Everything is written through to the underlying block device, which in
// the attack scenarios is an NVMe namespace over the shared FTL: a
// rowhammer bitflip in the device's L2P table really changes what the
// filesystem reads back. Directory blocks are read from the device on
// every visit too; only their decoding is cached, and reused only while
// a read returns the bytes it was decoded from.
//
// The implementation is deliberately compact: one block group, write
// through. It still enforces UNIX permissions (the victim's secrets are
// mode-0600 root files), hierarchical directories, sparse files with
// holes, and hard-link counts. Two hardened modes exist for the §5
// "does integrity protection stop the leak?" study: MkfsOptions.
// MetaChecksum stamps every inode record with a keyed CRC-32C, and
// JournalDevice (WrapJournal) adds a physical-block write-ahead journal
// with commit records and replay-on-open, so crashes and detected
// corruption roll back instead of tearing the volume.
package ext4
