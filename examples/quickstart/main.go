// Quickstart: build an emulated SSD stack (DRAM + NAND + FTL + NVMe),
// issue ordinary reads and writes, then run the paper's Figure 1 attack
// primitive — a double-sided rowhammer through nothing but NVMe reads —
// and watch a logical block silently remap to a different physical page.
package main

import (
	"fmt"
	"log"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/cloud"
	"ftlhammer/internal/dram"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
)

func main() {
	// A 512 MiB SSD with 1 GiB-class DRAM whose cells flip after 24000
	// disturbances per 64 ms refresh window — a deliberately weak module
	// so the demo completes instantly. dram.TestbedProfile() is the
	// paper-faithful alternative.
	cfg := cloud.Config{
		Device: fleet.DeviceSpec{
			Amplify: 1,
			DRAM: &dram.Config{
				Geometry: dram.SSDGeometry(),
				Timing:   dram.DefaultTiming(),
				Profile: dram.Profile{
					Name:            "demo-weak DDR3",
					HCfirst:         24000,
					ThresholdSigma:  0.1,
					WeakCellsPerRow: 2.0,
				},
				// Plain bank-XOR mapping: the single-tenant Figure 1 setting.
				Mapping: dram.MapperConfig{XorBank: true},
			},
			Flash: &nand.Geometry{
				Channels: 4, DiesPerChan: 2, PlanesPerDie: 2,
				BlocksPerPlan: 32, PagesPerBlock: 256, PageBytes: 4096,
			},
		},
		VictimFillBlocks: 512,
		Seed:             7,
	}
	tb, err := cloud.NewTestbed(cfg)
	if err != nil {
		log.Fatal(err)
	}
	id := tb.Device.Identify()
	fmt.Printf("device: %s (%.1f GiB, block %d B, %s L2P)\n",
		id.Model, float64(id.Capacity)/(1<<30), id.BlockBytes, id.L2PKind)

	// Ordinary I/O through the NVMe front end.
	dev, ns := tb.Device, tb.AttackerNS
	buf := make([]byte, dev.BlockBytes())
	copy(buf, "hello flash")
	if err := dev.Write(ns, 42, buf, nvme.PathDirect); err != nil {
		log.Fatal(err)
	}
	got := make([]byte, len(buf))
	if _, err := dev.Read(ns, 42, got, nvme.PathDirect); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("normal I/O: wrote and read back %q\n", got[:11])

	// Offline analysis: which of my LBAs' translations share DRAM rows?
	bindings, err := attack.Analyze(dev, ns, attack.AnalyzeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline analysis: %d aggressor/victim row triples available\n", len(bindings))

	// Prepare the victim rows (sequential writes -> mapped entries),
	// then hammer with ordinary reads of two trimmed LBAs.
	h := &attack.DeviceHammerer{Dev: dev, NS: ns, Path: nvme.PathDirect}
	pat := attack.DoublePattern()
	pat.Iterations = attack.HammerBudget(dev, 2)
	prepare := func(b attack.Binding) error {
		_, err := attack.PrepareVictimLines(dev, ns, b)
		return err
	}
	i, r, err := attack.FirstRedirect(h, bindings, 18, pat, prepare)
	if err != nil {
		log.Fatal(err)
	}
	if i < 0 {
		fmt.Println("no flips with this seed — try another")
		return
	}
	b := bindings[i]
	fmt.Printf("hammered rows %v around victim row %d (bank %d)\n",
		b.Triple.AggRows, b.Triple.VictimRow, b.Triple.Bank)
	fmt.Printf("BITFLIP: LBA %d silently remapped PPN %#x -> %#x\n", r[0].LBA, r[0].Old, r[0].New)
	fmt.Println("-> reads of that LBA now return another page's data")
}
