package ext4_test

import (
	"bytes"
	"testing"

	"ftlhammer/internal/cloud"
	"ftlhammer/internal/ext4"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/nvme"
)

// TestBlockDevicesKeepNoBuffer pins the BlockDevice no-retain contract
// the filesystem's scratch blocks rely on: WriteBlock copies its data and
// ReadBlock keeps nothing, so scribbling over either caller buffer after
// the call never changes what the device holds.
func TestBlockDevicesKeepNoBuffer(t *testing.T) {
	built, err := fleet.DeviceSpec{Tenants: 1}.Build(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ns, ok := built.Device.NamespaceByID(1)
	if !ok {
		t.Fatal("device has no namespace 1")
	}
	journal, err := ext4.WrapJournal(ext4.NewMemDevice(256), 0)
	if err != nil {
		t.Fatal(err)
	}
	devs := []struct {
		name string
		dev  ext4.BlockDevice
		// sync moves written blocks to their home location (nil: none).
		sync func() error
	}{
		{"MemDevice", ext4.NewMemDevice(64), nil},
		{"JournalDevice", journal, journal.Commit},
		{"NSBlockDevice", &cloud.NSBlockDevice{Dev: built.Device, NS: ns, Path: nvme.PathHostFS}, nil},
	}
	for _, d := range devs {
		t.Run(d.name, func(t *testing.T) {
			want := make([]byte, ext4.BlockSize)
			for i := range want {
				want[i] = byte(i*7 + 1)
			}
			data := append([]byte(nil), want...)
			if err := d.dev.WriteBlock(5, data); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, want) {
				t.Fatal("WriteBlock modified the caller's data")
			}
			for i := range data {
				data[i] = 0xAA
			}
			check := func(when string) {
				t.Helper()
				got := make([]byte, ext4.BlockSize)
				if err := d.dev.ReadBlock(5, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: block 5 changed with the caller's write buffer", when)
				}
				for i := range got {
					got[i] = 0x55
				}
			}
			check("first read")
			check("read after scribbling over a read buffer")
			if d.sync != nil {
				if err := d.sync(); err != nil {
					t.Fatal(err)
				}
				check("read after sync")
			}
		})
	}
}
