//yasmin:deterministic package

package sar

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"math/rand"
)

// Frame is one camera image with its metadata. Pixels are a synthetic
// grayscale sea surface with optional planted boat signatures.
type Frame struct {
	Seq    int
	W, H   int
	Pixels []byte
	// Boats is the ground-truth number of planted boats.
	Boats int
	// EXIF-ish metadata filled by the pipeline stages.
	Exif Exif
}

// Exif carries the metadata the pipeline extracts and augments.
type Exif struct {
	Seq       int
	Timestamp int64 // virtual ns at capture
	Pos       GlobalPos
	Camera    string
}

// boatPattern is the 4x4 high-intensity signature planted for each boat.
var boatPattern = [4][4]byte{
	{250, 251, 252, 250},
	{251, 255, 255, 252},
	{252, 255, 255, 251},
	{250, 252, 251, 250},
}

// detectThreshold is the pixel intensity that counts as "bright" during
// detection; sea texture stays well below it.
const detectThreshold = 240

// FrameSource generates deterministic frames: mostly empty sea, sometimes
// with boats (per BoatProb).
type FrameSource struct {
	rng      *rand.Rand
	w, h     int
	boatProb float64
	seq      int
}

// NewFrameSource creates a source of w x h frames; boatProb is the
// probability that a frame contains one or more boats.
func NewFrameSource(seed int64, w, h int, boatProb float64) (*FrameSource, error) {
	if w < 8 || h < 8 {
		return nil, fmt.Errorf("sar: frame size %dx%d too small", w, h)
	}
	if boatProb < 0 || boatProb > 1 {
		return nil, fmt.Errorf("sar: boat probability %g out of [0,1]", boatProb)
	}
	return &FrameSource{rng: rand.New(rand.NewSource(seed)), w: w, h: h, boatProb: boatProb}, nil
}

// Next produces the next frame.
func (s *FrameSource) Next() *Frame {
	s.seq++
	f := &Frame{Seq: s.seq, W: s.w, H: s.h, Pixels: make([]byte, s.w*s.h)}
	// Sea texture: dim noise.
	for i := range f.Pixels {
		f.Pixels[i] = byte(40 + s.rng.Intn(80))
	}
	if s.rng.Float64() < s.boatProb {
		f.Boats = 1 + s.rng.Intn(3)
		for b := 0; b < f.Boats; b++ {
			x := 2 + s.rng.Intn(s.w-8)
			y := 2 + s.rng.Intn(s.h-8)
			for dy := 0; dy < 4; dy++ {
				for dx := 0; dx < 4; dx++ {
					f.Pixels[(y+dy)*s.w+(x+dx)] = boatPattern[dy][dx]
				}
			}
		}
	}
	return f
}

// Detection is the object-detection result.
type Detection struct {
	Frame *Frame
	Boats int
	// Marks are the top-left corners of detected boats.
	Marks [][2]int
	// SpeedMMS is the estimated relative speed in mm/s (from EXIF deltas).
	SpeedMMS int
}

// DetectBoats scans the frame for the boat signature: a 4x4 block of pixels
// all above the detection threshold, greedily consumed left-to-right. It is
// the functional core of the "Detect objects" task (CPU and CUDA versions
// share it — they differ in WCET only).
func DetectBoats(f *Frame) *Detection {
	d := &Detection{Frame: f}
	taken := make([]bool, f.W*f.H)
	for y := 0; y+4 <= f.H; y++ {
		for x := 0; x+4 <= f.W; x++ {
			if taken[y*f.W+x] {
				continue
			}
			hit := true
		scan:
			for dy := 0; dy < 4; dy++ {
				for dx := 0; dx < 4; dx++ {
					p := (y+dy)*f.W + (x + dx)
					if taken[p] || f.Pixels[p] < detectThreshold {
						hit = false
						break scan
					}
				}
			}
			if hit {
				d.Boats++
				d.Marks = append(d.Marks, [2]int{x, y})
				for dy := 0; dy < 4; dy++ {
					for dx := 0; dx < 4; dx++ {
						taken[(y+dy)*f.W+(x+dx)] = true
					}
				}
			}
		}
	}
	return d
}

// EstimateSpeed derives a relative speed from consecutive EXIF positions;
// with a single frame it falls back to a nominal cruise speed.
func EstimateSpeed(prev, cur *Exif) int {
	if prev == nil || cur.Timestamp == prev.Timestamp {
		return 18000 // 18 m/s nominal cruise
	}
	dLat := int64(cur.Pos.LatE7 - prev.Pos.LatE7)
	dt := cur.Timestamp - prev.Timestamp
	if dt <= 0 {
		return 18000
	}
	// 1e-7 deg ~ 11.1 mm at the equator; speed in mm/s.
	mm := dLat * 111 / 10
	return int(mm * 1e9 / dt)
}

// HighlightBoats draws a bright box around each detection, in place — the
// "Highlight objects" task.
func HighlightBoats(d *Detection) {
	f := d.Frame
	for _, m := range d.Marks {
		x0, y0 := m[0]-1, m[1]-1
		x1, y1 := m[0]+4, m[1]+4
		for x := x0; x <= x1; x++ {
			setPx(f, x, y0, 255)
			setPx(f, x, y1, 255)
		}
		for y := y0; y <= y1; y++ {
			setPx(f, x0, y, 255)
			setPx(f, x1, y, 255)
		}
	}
}

func setPx(f *Frame, x, y int, v byte) {
	if x < 0 || y < 0 || x >= f.W || y >= f.H {
		return
	}
	f.Pixels[y*f.W+x] = v
}

// Packet is the ground-station report produced by "Create packet".
type Packet struct {
	FrameSeq int
	Boats    int
	Pos      GlobalPos
	SpeedMMS int
	Image    []byte // the (highlighted) frame
	Secure   bool   // AES-encrypted payload
}

// Marshal serialises the packet (header + image bytes).
func (p *Packet) Marshal() []byte {
	buf := make([]byte, 0, 24+len(p.Image))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.FrameSeq))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Boats))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Pos.LatE7))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Pos.LonE7))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Pos.AltMM))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.SpeedMMS))
	return append(buf, p.Image...)
}

// EncryptAES encrypts data with AES-128-CTR — the real cryptographic work
// behind the "Encode" task's AES version (its WCET in Fig. 3b covers a full
// frame). The 16-byte IV is prepended.
func EncryptAES(key, iv, data []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("sar: %w", err)
	}
	if len(iv) != aes.BlockSize {
		return nil, fmt.Errorf("sar: IV must be %d bytes", aes.BlockSize)
	}
	out := make([]byte, len(iv)+len(data))
	copy(out, iv)
	cipher.NewCTR(block, iv).XORKeyStream(out[len(iv):], data)
	return out, nil
}
