package sar

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/sim"
)

func TestMavRoundTrip(t *testing.T) {
	msg := &MavMsg{Seq: 7, SysID: 1, CompID: 2, MsgID: MsgGlobalPos, Payload: []byte{1, 2, 3}}
	wire, err := EncodeMav(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMav(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 || got.MsgID != MsgGlobalPos || !bytes.Equal(got.Payload, msg.Payload) {
		t.Errorf("round trip = %+v", got)
	}
}

func TestMavDecodeErrors(t *testing.T) {
	good, _ := EncodeGlobalPos(1, GlobalPos{LatE7: 1, LonE7: 2, AltMM: 3})
	cases := map[string][]byte{
		"short":        {0xFE, 0},
		"bad magic":    append([]byte{0x55}, good[1:]...),
		"bad length":   append(append([]byte{}, good...), 0xFF),
		"bad checksum": flipLastBit(good),
	}
	for name, frame := range cases {
		if _, err := DecodeMav(frame); err == nil {
			t.Errorf("%s: want decode error", name)
		}
	}
}

func flipLastBit(b []byte) []byte {
	out := append([]byte{}, b...)
	out[len(out)-1] ^= 1
	return out
}

func TestGlobalPosRoundTrip(t *testing.T) {
	pos := GlobalPos{LatE7: 527000123, LonE7: -47000456, AltMM: 98000}
	wire, err := EncodeGlobalPos(3, pos)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := DecodeMav(wire)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGlobalPos(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got != pos {
		t.Errorf("got %+v, want %+v", got, pos)
	}
	// Wrong message type.
	hb, _ := EncodeMav(&MavMsg{MsgID: MsgHeartbeat})
	m2, _ := DecodeMav(hb)
	if _, err := DecodeGlobalPos(m2); err == nil {
		t.Error("want type error for heartbeat")
	}
}

func TestMavGeneratorStream(t *testing.T) {
	g := NewMavGenerator(GlobalPos{LatE7: 100})
	heartbeats, positions := 0, 0
	var lastLat int32 = 100
	for i := 0; i < 100; i++ {
		msg, err := DecodeMav(g.Next())
		if err != nil {
			t.Fatal(err)
		}
		switch msg.MsgID {
		case MsgHeartbeat:
			heartbeats++
		case MsgGlobalPos:
			positions++
			pos, err := DecodeGlobalPos(msg)
			if err != nil {
				t.Fatal(err)
			}
			if pos.LatE7 <= lastLat {
				t.Error("latitude not advancing")
			}
			lastLat = pos.LatE7
		}
	}
	if heartbeats != 10 || positions != 90 {
		t.Errorf("heartbeats=%d positions=%d, want 10/90", heartbeats, positions)
	}
}

func TestFrameSourceAndDetection(t *testing.T) {
	src, err := NewFrameSource(1, 64, 48, 1.0) // boats in every frame
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		f := src.Next()
		d := DetectBoats(f)
		if d.Boats < f.Boats {
			t.Errorf("frame %d: detected %d of %d boats", f.Seq, d.Boats, f.Boats)
		}
		// Overlapping plants can merge, but detection never exceeds plants
		// by more than the merge slack; require at least one mark per boat
		// found.
		if len(d.Marks) != d.Boats {
			t.Errorf("marks %d != boats %d", len(d.Marks), d.Boats)
		}
	}
}

func TestNoBoatsNoDetections(t *testing.T) {
	src, err := NewFrameSource(2, 64, 48, 0) // no boats ever
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		f := src.Next()
		if f.Boats != 0 {
			t.Fatal("source planted boats at zero probability")
		}
		if d := DetectBoats(f); d.Boats != 0 {
			t.Errorf("false positive: %d boats in empty sea", d.Boats)
		}
	}
}

func TestFrameSourceValidation(t *testing.T) {
	if _, err := NewFrameSource(1, 4, 48, 0.5); err == nil {
		t.Error("want error for tiny frame")
	}
	if _, err := NewFrameSource(1, 64, 48, 1.5); err == nil {
		t.Error("want error for probability > 1")
	}
}

func TestHighlightDrawsBoxes(t *testing.T) {
	src, _ := NewFrameSource(3, 64, 48, 1.0)
	f := src.Next()
	d := DetectBoats(f)
	if d.Boats == 0 {
		t.Skip("no boats this seed")
	}
	HighlightBoats(d)
	m := d.Marks[0]
	// Border above the boat must now be bright.
	if y := m[1] - 1; y >= 0 {
		if f.Pixels[y*f.W+m[0]] != 255 {
			t.Error("highlight box not drawn")
		}
	}
}

func TestEstimateSpeed(t *testing.T) {
	cur := &Exif{Timestamp: int64(time.Second), Pos: GlobalPos{LatE7: 1000}}
	if got := EstimateSpeed(nil, cur); got != 18000 {
		t.Errorf("no-prev speed = %d, want nominal 18000", got)
	}
	prev := &Exif{Timestamp: 0, Pos: GlobalPos{LatE7: 0}}
	got := EstimateSpeed(prev, cur)
	// 1000 * 11.1mm = 11100mm over 1s.
	if got < 11000 || got > 11200 {
		t.Errorf("speed = %d mm/s, want ~11100", got)
	}
}

func TestPacketAndAESRoundTrip(t *testing.T) {
	pkt := &Packet{FrameSeq: 9, Boats: 2, Pos: GlobalPos{LatE7: 5, LonE7: 6, AltMM: 7}, SpeedMMS: 18000, Image: []byte{1, 2, 3, 4}}
	plain := pkt.Marshal()
	back, err := UnmarshalPacket(plain)
	if err != nil {
		t.Fatal(err)
	}
	if back.FrameSeq != 9 || back.Boats != 2 || !bytes.Equal(back.Image, pkt.Image) {
		t.Errorf("round trip = %+v", back)
	}
	key := bytes.Repeat([]byte{7}, 16)
	iv := bytes.Repeat([]byte{9}, 16)
	ct, err := EncryptAES(key, iv, plain)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(ct, pkt.Image) {
		t.Error("ciphertext leaks plaintext")
	}
	pt, err := DecryptAES(key, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, plain) {
		t.Error("AES round trip failed")
	}
	if _, err := EncryptAES(key[:5], iv, plain); err == nil {
		t.Error("want error for short key")
	}
	if _, err := DecryptAES(key, []byte{1, 2}); err == nil {
		t.Error("want error for short ciphertext")
	}
	if _, err := UnmarshalPacket([]byte{1}); err == nil {
		t.Error("want error for short packet")
	}
}

// buildAndRun wires the SAR app onto a simulated TK1 and runs one mission.
func buildAndRun(t *testing.T, params Params, mission time.Duration, workers int) (*Pipeline, *core.App) {
	t.Helper()
	eng := sim.NewEngine(11)
	env, err := rt.NewSimEnv(eng, platform.ApalisTK1(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Workers:        workers,
		Mapping:        core.MappingGlobal,
		Priority:       core.PriorityEDF,
		VersionSelect:  core.SelectMode,
		Preemption:     true,
		MaxTasks:       16,
		MaxPendingJobs: 128,
	}
	app, err := core.New(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Build(app, params)
	if err != nil {
		t.Fatal(err)
	}
	env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		if err := app.Start(c); err != nil {
			t.Errorf("Start: %v", err)
			return
		}
		c.SleepUntil(mission)
		app.Stop(c)
		app.Cleanup(c)
	})
	if err := eng.Run(sim.Time(mission + 30*time.Second)); err != nil {
		t.Fatal(err)
	}
	return pl, app
}

func TestSARMissionGPUFasterThanCPU(t *testing.T) {
	mission := 10 * time.Second
	gpuPl, gpuApp := buildAndRun(t, Params{Versions: GPUOnly, Seed: 5}, mission, 3)
	cpuPl, cpuApp := buildAndRun(t, Params{Versions: CPUOnly, Seed: 5}, mission, 3)
	if gpuPl.FramesProcessed == 0 || cpuPl.FramesProcessed == 0 {
		t.Fatalf("frames: gpu=%d cpu=%d", gpuPl.FramesProcessed, cpuPl.FramesProcessed)
	}
	g := gpuApp.Recorder().Task("graph:send")
	c := cpuApp.Recorder().Task("graph:send")
	if g == nil || c == nil {
		t.Fatal("missing end-to-end records")
	}
	_, _, gAvg := g.Response.Summary()
	_, _, cAvg := c.Response.Summary()
	if gAvg >= cAvg {
		t.Errorf("GPU frame time %v not below CPU %v", gAvg, cAvg)
	}
	// CPU-only chain (~700ms) must overrun the 500ms frame deadline.
	if c.Misses == 0 {
		t.Error("CPU-only must miss frame deadlines (chain > period)")
	}
}

func TestSARDetectionsAreReported(t *testing.T) {
	pl, app := buildAndRun(t, Params{Versions: GPUOnly, Seed: 7, BoatProb: 1.0}, 8*time.Second, 3)
	if len(pl.Sent) == 0 {
		t.Fatal("boats in every frame but nothing was sent to the ground station")
	}
	for _, pkt := range pl.Sent {
		if pkt.Boats == 0 {
			t.Error("sent packet without boats")
		}
		if pkt.Pos.LatE7 == 0 {
			t.Error("packet lacks GPS augmentation from the FC handler")
		}
	}
	if pl.DecodeErrors != 0 {
		t.Errorf("decode errors: %d", pl.DecodeErrors)
	}
	if app.FirstError() != nil {
		t.Errorf("task error: %v", app.FirstError())
	}
}

func TestSARSecureModeSwitchesToAES(t *testing.T) {
	pl, _ := buildAndRun(t, Params{
		Versions: GPUOnly, Seed: 9, BoatProb: 1.0, SecureOnDetect: true,
	}, 8*time.Second, 3)
	if len(pl.Sent) == 0 {
		t.Fatal("nothing sent")
	}
	secure := 0
	for _, pkt := range pl.Sent {
		if pkt.Secure {
			secure++
		}
	}
	if secure == 0 {
		t.Error("no AES-encoded packets despite constant detections in secure mode")
	}
}

func TestSARFCHandlerKeepsUp(t *testing.T) {
	// With "both" versions the FC handler should meet (nearly all of) its
	// 10ms deadlines — the Fig. 4 headline.
	_, app := buildAndRun(t, Params{Versions: Both, Seed: 3}, 10*time.Second, 3)
	fc := app.Recorder().Task("fc_msg_handler")
	if fc == nil || fc.Jobs < 900 {
		t.Fatalf("fc stats = %+v", fc)
	}
	ratio := float64(fc.Misses) / float64(fc.Jobs)
	if ratio > 0.02 {
		t.Errorf("fc miss ratio %.3f with both versions, want ~0", ratio)
	}
}

// UnmarshalPacket parses a marshalled packet (plaintext form).
func UnmarshalPacket(b []byte) (*Packet, error) {
	if len(b) < 24 {
		return nil, fmt.Errorf("sar: packet too short (%d)", len(b))
	}
	p := &Packet{
		FrameSeq: int(binary.LittleEndian.Uint32(b[0:])),
		Boats:    int(binary.LittleEndian.Uint32(b[4:])),
		Pos: GlobalPos{
			LatE7: int32(binary.LittleEndian.Uint32(b[8:])),
			LonE7: int32(binary.LittleEndian.Uint32(b[12:])),
			AltMM: int32(binary.LittleEndian.Uint32(b[16:])),
		},
		SpeedMMS: int(binary.LittleEndian.Uint32(b[20:])),
	}
	p.Image = append(p.Image, b[24:]...)
	return p, nil
}

// DecryptAES reverses EncryptAES.
func DecryptAES(key, payload []byte) ([]byte, error) {
	if len(payload) < aes.BlockSize {
		return nil, fmt.Errorf("sar: ciphertext too short")
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("sar: %w", err)
	}
	out := make([]byte, len(payload)-aes.BlockSize)
	cipher.NewCTR(block, payload[:aes.BlockSize]).XORKeyStream(out, payload[aes.BlockSize:])
	return out, nil
}
