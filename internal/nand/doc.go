// Package nand simulates the NAND flash array behind the FTL: channels,
// dies, planes, blocks and pages, with the three physical constraints that
// force SSDs to have an FTL in the first place (§2.1 of the paper):
//
//   - no in-place writes: a page must be erased (at block granularity)
//     before it can be programmed again;
//   - pages within a block must be programmed in order;
//   - erases are slow and wear the block out.
//
// Timing constants let the device front-end model throughput: reads that
// miss the mapping table entirely (trimmed/unmapped LBAs) skip the flash
// and are serviced at interface speed, which is why the paper's attacker
// prefers them (§3, threat model).
//
// Garbage collection moves live pages by copyback: Sense reads a page
// into the die and CopyProgram programs it elsewhere without the data
// crossing to the host. A copyback is charged as a read plus a program,
// with the same counters and fault decisions, in the same order, as
// Read followed by Program.
package nand
