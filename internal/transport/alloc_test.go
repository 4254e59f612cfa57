package transport

import (
	"bytes"
	"context"
	"testing"

	"ftlhammer/internal/faults"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/sim"
)

// TestFrameCodecAllocs pins the zero-allocation property of the wire
// codec's recycled-buffer forms: encoding a batch or completions frame
// into a reused scratch, reading a frame into a reused buffer and decoding
// from a reused payload must not allocate once the buffers have grown to
// their high-water mark.
func TestFrameCodecAllocs(t *testing.T) {
	const blockBytes = 512
	data := make([]byte, blockBytes)
	cmds := []wireCmd{
		{Op: byte(nvme.OpRead), Tag: 1, LBA: 7},
		{Op: byte(nvme.OpWrite), Tag: 2, LBA: 9, Data: data},
		{Op: byte(nvme.OpTrim), Tag: 3, LBA: 11},
	}
	comps := []wireCompletion{
		{Tag: 1, Status: StatusOK, Mapped: true, Data: data},
		{Tag: 2, Status: StatusOK},
		{Tag: 3, Status: StatusOK},
	}

	t.Run("encode-batch", func(t *testing.T) {
		var wbuf []byte
		encode := func() {
			frame, start := beginFrame(wbuf[:0], frameBatch)
			frame = appendBatch(frame, cmds)
			wbuf = endFrame(frame, start)
		}
		encode() // grow to high-water mark
		if avg := testing.AllocsPerRun(200, encode); avg != 0 {
			t.Errorf("batch encode: %v allocs/op, want 0", avg)
		}
	})

	t.Run("decode-batch", func(t *testing.T) {
		payload := appendBatch(nil, cmds)
		var scratch []wireCmd
		decode := func() {
			var err error
			scratch, err = parseBatchInto(scratch[:0], payload, blockBytes)
			if err != nil || len(scratch) != len(cmds) {
				t.Fatalf("parseBatchInto: %d cmds, %v", len(scratch), err)
			}
		}
		decode()
		if avg := testing.AllocsPerRun(200, decode); avg != 0 {
			t.Errorf("batch decode: %v allocs/op, want 0", avg)
		}
	})

	t.Run("encode-completions", func(t *testing.T) {
		var wbuf []byte
		encode := func() {
			frame, start := beginFrame(wbuf[:0], frameCompletions)
			frame = appendCompletions(frame, comps)
			wbuf = endFrame(frame, start)
		}
		encode()
		if avg := testing.AllocsPerRun(200, encode); avg != 0 {
			t.Errorf("completions encode: %v allocs/op, want 0", avg)
		}
	})

	t.Run("decode-completions", func(t *testing.T) {
		payload := appendCompletions(nil, comps)
		var scratch []wireCompletion
		decode := func() {
			var err error
			scratch, err = parseCompletionsInto(scratch[:0], payload)
			if err != nil || len(scratch) != len(comps) {
				t.Fatalf("parseCompletionsInto: %d comps, %v", len(scratch), err)
			}
		}
		decode()
		if avg := testing.AllocsPerRun(200, decode); avg != 0 {
			t.Errorf("completions decode: %v allocs/op, want 0", avg)
		}
	})

	t.Run("read-frame", func(t *testing.T) {
		frame, start := beginFrame(nil, frameCompletions)
		frame = endFrame(appendCompletions(frame, comps), start)
		r := bytes.NewReader(frame)
		var scratch []byte
		read := func() {
			r.Reset(frame)
			typ, payload, err := readFrameInto(r, scratch, len(frame))
			if err != nil || typ != frameCompletions || len(payload) != len(frame)-frameHeaderLen {
				t.Fatalf("readFrameInto: type %d, %d bytes, %v", typ, len(payload), err)
			}
			scratch = payload
		}
		read()
		if avg := testing.AllocsPerRun(200, read); avg != 0 {
			t.Errorf("frame read: %v allocs/op, want 0", avg)
		}
	})
}

// TestLoopbackRingAllocs pins the served hot path end to end, the path
// perfgate's ServerBatch case times: once the pooled batch working set
// has warmed, a 16-command read ring over loopback TCP (client encode,
// server decode, engine execution, completion encode, client parse)
// allocates nothing on either side, whether or not the caller drains
// Completions after it. A caller that never drains, as ServerBatch does,
// keeps one window of completions, not every ring's.
func TestLoopbackRingAllocs(t *testing.T) {
	const window = 16
	dev, _ := newTestDevice(t, 6, 1, faults.Plan{})
	addr, _ := startServer(t, NewServer(dev, Config{Window: window}))
	c, err := Dial(context.Background(), addr, ClientConfig{NSID: 1, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, c.BlockBytes())
	ring := func(drain bool) {
		for i := 0; i < window; i++ {
			if err := c.Submit(nvme.Command{Op: nvme.OpRead, LBA: ftl.LBA(i), Buf: buf}); err != nil {
				t.Fatal(err)
			}
		}
		if n, err := c.Ring(context.Background()); err != nil || n != window {
			t.Fatalf("Ring: n=%d err=%v", n, err)
		}
		if drain {
			if n := len(c.Completions()); n != window {
				t.Fatalf("drained %d completions, want %d", n, window)
			}
		}
	}
	for i := 0; i < 1000; i++ {
		ring(false)
	}
	if got := cap(c.cq); got > window {
		t.Errorf("1000 undrained rings grew the completion queue to cap %d, want at most %d", got, window)
	}
	if sim.RaceEnabled {
		t.Skip("race builds arm the clock's owner guard, which allocates on every 4096th clock touch")
	}
	for _, drain := range []bool{false, true} {
		if avg := testing.AllocsPerRun(100, func() { ring(drain) }); avg != 0 {
			t.Errorf("loopback ring (drain=%v): %v allocs per %d-command ring, want 0", drain, avg, window)
		}
	}
}
