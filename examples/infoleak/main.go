// Infoleak: the paper's end-to-end §4.2 / Figure 3 scenario. An
// unprivileged process inside the victim VM sprays ext4 files whose data
// blocks are maliciously formed indirect blocks; the co-located attacker
// VM rowhammers the shared FTL's translation table; the scan stage finds a
// spray file whose indirect block now reads as attacker pointers — and
// dumps the victim's privileged data through it, including root's SSH key.
package main

import (
	"fmt"
	"log"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/cloud"
	"ftlhammer/internal/dram"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/nand"
)

func main() {
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
				// The reverse-engineered mapping whose row interleaving
				// places attacker rows on both sides of victim rows.
				Mapping: dram.MapperConfig{
					Twist:      dram.TwistInterleave,
					TwistGroup: 8,
					XorBank:    true,
				},
			},
			Flash: &nand.Geometry{
				Channels: 4, DiesPerChan: 2, PlanesPerDie: 2,
				BlocksPerPlan: 32, PagesPerBlock: 256, PageBytes: 4096,
			},
		},
		VictimFillBlocks: 6144,
		Seed:             0xBEEF,
	}
	tb, err := cloud.NewTestbed(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("two-VM cloud server sharing one emulated SSD:")
	fmt.Printf("  victim VM:   namespace %d (%d blocks) with ext4, root secrets, unprivileged attacker process\n",
		tb.VictimNS.ID, tb.VictimNS.NumLBAs)
	fmt.Printf("  attacker VM: namespace %d (%d blocks) with direct (SRIOV-style) device access\n",
		tb.AttackerNS.ID, tb.AttackerNS.NumLBAs)

	// Hunt for any of the victim's private data. Every successful leak
	// dumps a sample of the victim partition; repeating cycles dumps more
	// and more until even a single specific block (such as root's SSH
	// key, cloud.SecretMarker) falls out — the paper's "the attacker can
	// eventually dump the content of the entire victim partition".
	camp, err := attack.NewCampaign(tb, attack.CampaignConfig{
		SprayFiles:      3072,
		TargetsPerFile:  64,
		MaxCycles:       20,
		TriplesPerCycle: 8,
		Hunt:            "victim-data-block-",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrunning the spray -> hammer -> scan loop ...")
	rep, err := camp.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cycles: %d, spray files: %d, hammer reads: %d\n",
		rep.Cycles, rep.SpraysCreated, rep.HammerReads)
	fmt.Printf("bitflips induced: %d, leaks detected: %d, victim blocks dumped: %d\n",
		rep.FlipsInduced, rep.LeaksDetected, rep.BlocksDumped)
	fmt.Printf("virtual time: %v\n", rep.Elapsed)
	if rep.SecretFound {
		fmt.Printf("\n*** victim tenant data LEAKED by the unprivileged process ***\n%q...\n",
			rep.SecretContent[:64])
	} else {
		fmt.Println("\nno leak this run; blocks dumped:", rep.BlocksDumped)
	}
}
