package transport

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"ftlhammer/internal/nvme"
)

func TestHelloRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		h := hello{
			Version: byte(rng.Intn(256)),
			NSID:    uint16(rng.Intn(1 << 16)),
			Path:    byte(rng.Intn(2)),
			Window:  uint16(rng.Intn(1 << 16)),
		}
		got, err := parseHello(appendHello(nil, h))
		if err != nil {
			t.Fatalf("parseHello(%+v): %v", h, err)
		}
		if got != h {
			t.Fatalf("round trip %+v -> %+v", h, got)
		}
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	msgs := []string{"", "no namespace 9", string(bytes.Repeat([]byte("x"), maxMsgLen))}
	for i := 0; i < 200; i++ {
		w := welcome{
			Version:    ProtocolVersion,
			Status:     Status(rng.Intn(int(StatusError) + 1)),
			Msg:        msgs[rng.Intn(len(msgs))],
			SessionID:  rng.Uint32(),
			BlockBytes: rng.Uint32(),
			NumLBAs:    rng.Uint64(),
			Window:     uint16(rng.Intn(1 << 16)),
		}
		got, err := parseWelcome(appendWelcome(nil, w))
		if err != nil {
			t.Fatalf("parseWelcome(%+v): %v", w, err)
		}
		if got != w {
			t.Fatalf("round trip %+v -> %+v", w, got)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	const blockBytes = 64
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(20)
		cmds := make([]wireCmd, n)
		for i := range cmds {
			op := byte(rng.Intn(3))
			cmds[i] = wireCmd{Op: op, Tag: rng.Uint64(), LBA: rng.Uint64()}
			if nvme.Opcode(op) == nvme.OpWrite {
				cmds[i].Data = make([]byte, blockBytes)
				rng.Read(cmds[i].Data)
			}
		}
		got, err := parseBatchInto(nil, appendBatch(nil, cmds), blockBytes)
		if err != nil {
			t.Fatalf("parseBatch: %v", err)
		}
		if len(got) != len(cmds) {
			t.Fatalf("round trip %d cmds -> %d", len(cmds), len(got))
		}
		for i := range cmds {
			if got[i].Op != cmds[i].Op || got[i].Tag != cmds[i].Tag || got[i].LBA != cmds[i].LBA ||
				!bytes.Equal(got[i].Data, cmds[i].Data) {
				t.Fatalf("cmd %d: %+v -> %+v", i, cmds[i], got[i])
			}
		}
	}
}

func TestCompletionsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(20)
		comps := make([]wireCompletion, n)
		for i := range comps {
			comps[i] = wireCompletion{
				Tag:    rng.Uint64(),
				Status: Status(rng.Intn(int(StatusError) + 1)),
				Mapped: rng.Intn(2) == 1,
			}
			if comps[i].Status != StatusOK {
				comps[i].Msg = "some failure detail"
			} else if rng.Intn(2) == 1 {
				comps[i].Data = make([]byte, 32)
				rng.Read(comps[i].Data)
			}
		}
		got, err := parseCompletionsInto(nil, appendCompletions(nil, comps))
		if err != nil {
			t.Fatalf("parseCompletions: %v", err)
		}
		if len(got) != len(comps) {
			t.Fatalf("round trip %d comps -> %d", len(comps), len(got))
		}
		for i := range comps {
			c, g := comps[i], got[i]
			if g.Tag != c.Tag || g.Status != c.Status || g.Mapped != c.Mapped ||
				g.Msg != c.Msg || !bytes.Equal(g.Data, c.Data) {
				t.Fatalf("comp %d: %+v -> %+v", i, c, g)
			}
		}
	}
}

func TestParseBatchRejectsMalformedShapes(t *testing.T) {
	const blockBytes = 16
	cases := []struct {
		name string
		cmds []wireCmd
	}{
		{"short write", []wireCmd{{Op: byte(nvme.OpWrite), Data: make([]byte, blockBytes-1)}}},
		{"long write", []wireCmd{{Op: byte(nvme.OpWrite), Data: make([]byte, blockBytes+1)}}},
		{"read with data", []wireCmd{{Op: byte(nvme.OpRead), Data: []byte{1}}}},
		{"trim with data", []wireCmd{{Op: byte(nvme.OpTrim), Data: []byte{1}}}},
		{"unknown opcode", []wireCmd{{Op: 9}}},
	}
	for _, tc := range cases {
		if _, err := parseBatchInto(nil, appendBatch(nil, tc.cmds), blockBytes); !errors.Is(err, errMalformed) {
			t.Errorf("%s: err = %v, want errMalformed", tc.name, err)
		}
	}
	if _, err := parseBatchInto(nil, []byte{0, 1}, blockBytes); !errors.Is(err, errMalformed) {
		t.Errorf("truncated batch: err = %v, want errMalformed", err)
	}
	good := appendBatch(nil, []wireCmd{{Op: byte(nvme.OpRead), Tag: 1, LBA: 2}})
	if _, err := parseBatchInto(nil, append(good, 0xFF), blockBytes); !errors.Is(err, errMalformed) {
		t.Errorf("trailing bytes: err = %v, want errMalformed", err)
	}
}

func TestStatusErrorRoundTrip(t *testing.T) {
	sentinels := []error{
		nvme.ErrOutOfRange, nvme.ErrTimeout, nvme.ErrAborted,
		nvme.ErrMediaFailure, nvme.ErrReadOnly,
	}
	for _, sentinel := range sentinels {
		st, msg := statusOf(sentinel)
		back := errorOf(st, msg)
		if !errors.Is(back, sentinel) {
			t.Errorf("errors.Is lost across the wire for %v (status %v)", sentinel, st)
		}
		if back.Error() != sentinel.Error() {
			t.Errorf("message changed: %q -> %q", sentinel.Error(), back.Error())
		}
	}
	if st, _ := statusOf(nil); st != StatusOK {
		t.Errorf("statusOf(nil) = %v, want StatusOK", st)
	}
	if err := errorOf(StatusOK, ""); err != nil {
		t.Errorf("errorOf(StatusOK) = %v, want nil", err)
	}
	if err := errorOf(StatusError, "custom"); err == nil || err.Error() != "custom" {
		t.Errorf("errorOf(StatusError, custom) = %v", err)
	}
}

// FuzzParseBatch asserts the decoder never panics and never accepts a
// payload that re-encodes differently.
func FuzzParseBatch(f *testing.F) {
	f.Add([]byte{}, 64)
	f.Add(appendBatch(nil, []wireCmd{{Op: byte(nvme.OpRead), Tag: 7, LBA: 9}}), 64)
	f.Add(appendBatch(nil, []wireCmd{{Op: byte(nvme.OpWrite), Data: make([]byte, 64)}}), 64)
	f.Add([]byte{0xFF, 0xFF, 0, 0, 0}, 64)
	f.Fuzz(func(t *testing.T, p []byte, blockBytes int) {
		if blockBytes < 1 || blockBytes > 1<<16 {
			return
		}
		cmds, err := parseBatchInto(nil, p, blockBytes)
		if err != nil {
			return
		}
		if !bytes.Equal(appendBatch(nil, cmds), p) {
			t.Fatalf("accepted payload does not re-encode to itself")
		}
	})
}

// FuzzParseCompletions asserts the decoder never panics and accepted
// payloads are canonical.
func FuzzParseCompletions(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendCompletions(nil, []wireCompletion{{Tag: 1, Status: StatusTimeout, Msg: "m"}}))
	f.Add([]byte{0xFF, 0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, p []byte) {
		comps, err := parseCompletionsInto(nil, p)
		if err != nil {
			return
		}
		for _, cp := range comps {
			if len(cp.Msg) > maxMsgLen {
				return // decoder is laxer than the encoder's truncation
			}
		}
		if !bytes.Equal(appendCompletions(nil, comps), p) {
			t.Fatalf("accepted payload does not re-encode to itself")
		}
	})
}

// FuzzParseWelcome covers the handshake decoder the client exposes to the
// network.
func FuzzParseWelcome(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendWelcome(nil, welcome{Version: 1, Status: StatusOK, SessionID: 3, BlockBytes: 512, NumLBAs: 100, Window: 8}))
	f.Add(appendWelcome(nil, welcome{Version: 1, Status: StatusInvalid, Msg: "nope"}))
	f.Fuzz(func(t *testing.T, p []byte) {
		w, err := parseWelcome(p)
		if err != nil {
			return
		}
		if len(w.Msg) > maxMsgLen {
			return // decoder is laxer than the encoder's truncation
		}
		if !bytes.Equal(appendWelcome(nil, w), p) {
			t.Fatalf("accepted payload does not re-encode to itself")
		}
	})
}
