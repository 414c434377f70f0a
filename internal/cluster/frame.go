package cluster

import (
	"fmt"

	"github.com/yasmin-rt/yasmin/internal/jsonenc"
)

// FrameKind tags the wire-frame variant.
type FrameKind uint8

// Frame kinds.
const (
	// FrameData carries one topic entry from its origin node to a node
	// hosting remote subscribers.
	FrameData FrameKind = iota
	// FrameSyncReq is a clock-discipline request: the sender's t1.
	FrameSyncReq
	// FrameSyncResp is the reference node's answer: the request's t1, the
	// server receive time t2, and the server send time t3 (SentAt).
	FrameSyncResp
)

// Frame is the compact wire unit of the data plane: one in-memory
// delivery of MemTransport, the only transport. Data frames
// carry the publisher's identity and a per-(origin,topic,pub) sequence
// number, so receivers can enforce per-publisher FIFO under loss and
// reordering without any retransmission protocol; the epoch stamp lets
// them reject deliveries from two reconfigurations ago; the send
// timestamp feeds the clock-discipline estimator. Payloads are int64 —
// the cluster data plane is a control/telemetry-grade channel, not a
// bulk serializer (richer payloads belong to an application codec above
// it).
type Frame struct {
	Kind   FrameKind
	Origin int    // origin node id
	Topic  string // topic name (cluster-wide namespace); data frames only
	Pub    int    // publisher task id on the origin node; data frames only
	Seq    uint64 // per-(origin,topic,pub) sequence, 1-based; data frames only
	Epoch  uint64 // cluster epoch at send time
	SentAt int64  // sender-local send timestamp (ns since env start)
	Val    int64  // payload (data); t1 rides SentAt for sync requests
	T1, T2 int64  // sync exchange echoes (FrameSyncResp only)
}

// AppendFrame appends f as one JSON object (no trailing newline) and
// returns the extended buffer — the same zero-alloc append style as the
// telemetry exporter, built on the shared internal/jsonenc helpers.
// Sync frames elide the topic fields; data frames elide t1/t2.
//
//yasmin:noalloc
func AppendFrame(b []byte, f *Frame) []byte {
	b = jsonenc.AppendDec(append(b, `{"k":`...), uint64(f.Kind))
	b = jsonenc.AppendSigned(append(b, `,"o":`...), int64(f.Origin))
	if f.Kind == FrameData {
		b = jsonenc.AppendString(append(b, `,"t":`...), f.Topic)
		b = jsonenc.AppendSigned(append(b, `,"p":`...), int64(f.Pub))
		b = jsonenc.AppendDec(append(b, `,"q":`...), f.Seq)
	}
	b = jsonenc.AppendDec(append(b, `,"e":`...), f.Epoch)
	b = jsonenc.AppendSigned(append(b, `,"s":`...), f.SentAt)
	if f.Kind == FrameData {
		b = jsonenc.AppendSigned(append(b, `,"v":`...), f.Val)
	}
	if f.Kind == FrameSyncResp {
		b = jsonenc.AppendSigned(append(b, `,"t1":`...), f.T1)
		b = jsonenc.AppendSigned(append(b, `,"t2":`...), f.T2)
	}
	return append(b, '}')
}

// ParseFrame decodes one encoded frame. The parser is hand-rolled
// against exactly the shape AppendFrame writes (flat object, known
// keys) so the ingress hot path never touches encoding/json; unknown
// keys are an error — the schema is versioned by construction.
func ParseFrame(b []byte) (Frame, error) {
	var f Frame
	p := frameParser{b: b}
	if err := p.expect('{'); err != nil {
		return f, err
	}
	for {
		key, err := p.str()
		if err != nil {
			return f, err
		}
		if err := p.expect(':'); err != nil {
			return f, err
		}
		switch key {
		case "k":
			n, err := p.num()
			if err != nil {
				return f, err
			}
			f.Kind = FrameKind(n)
		case "o":
			n, err := p.num()
			if err != nil {
				return f, err
			}
			f.Origin = int(n)
		case "t":
			s, err := p.str()
			if err != nil {
				return f, err
			}
			f.Topic = s
		case "p":
			n, err := p.num()
			if err != nil {
				return f, err
			}
			f.Pub = int(n)
		case "q":
			n, err := p.num()
			if err != nil {
				return f, err
			}
			f.Seq = uint64(n)
		case "e":
			n, err := p.num()
			if err != nil {
				return f, err
			}
			f.Epoch = uint64(n)
		case "s":
			n, err := p.num()
			if err != nil {
				return f, err
			}
			f.SentAt = n
		case "v":
			n, err := p.num()
			if err != nil {
				return f, err
			}
			f.Val = n
		case "t1":
			n, err := p.num()
			if err != nil {
				return f, err
			}
			f.T1 = n
		case "t2":
			n, err := p.num()
			if err != nil {
				return f, err
			}
			f.T2 = n
		default:
			return f, fmt.Errorf("cluster: frame: unknown key %q", key)
		}
		c, err := p.next()
		if err != nil {
			return f, err
		}
		if c == '}' {
			return f, nil
		}
		if c != ',' {
			return f, fmt.Errorf("cluster: frame: expected ',' or '}', got %q", c)
		}
	}
}

// frameParser is the minimal scanner behind ParseFrame. The encoder
// emits no whitespace, so none is skipped.
type frameParser struct {
	b []byte
	i int
}

func (p *frameParser) next() (byte, error) {
	if p.i >= len(p.b) {
		return 0, fmt.Errorf("cluster: frame: truncated at byte %d", p.i)
	}
	c := p.b[p.i]
	p.i++
	return c, nil
}

func (p *frameParser) expect(want byte) error {
	c, err := p.next()
	if err != nil {
		return err
	}
	if c != want {
		return fmt.Errorf("cluster: frame: expected %q at byte %d, got %q", want, p.i-1, c)
	}
	return nil
}

// str parses a JSON string literal, handling the escapes our encoder
// produces (\", \\, \u00XX). The unescaped common case returns a
// zero-copy slice view converted once.
func (p *frameParser) str() (string, error) {
	if err := p.expect('"'); err != nil {
		return "", err
	}
	start := p.i
	esc := false
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c == '"' {
			raw := p.b[start:p.i]
			p.i++
			if !esc {
				return string(raw), nil
			}
			return unescape(raw)
		}
		if c == '\\' {
			esc = true
			p.i += 2
			continue
		}
		p.i++
	}
	return "", fmt.Errorf("cluster: frame: unterminated string")
}

func unescape(raw []byte) (string, error) {
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c != '\\' {
			out = append(out, c)
			continue
		}
		i++
		if i >= len(raw) {
			return "", fmt.Errorf("cluster: frame: dangling escape")
		}
		switch raw[i] {
		case '"', '\\', '/':
			out = append(out, raw[i])
		case 'u':
			if i+4 >= len(raw) {
				return "", fmt.Errorf("cluster: frame: truncated \\u escape")
			}
			var v byte
			for _, h := range raw[i+1 : i+5] {
				v <<= 4
				switch {
				case h >= '0' && h <= '9':
					v |= h - '0'
				case h >= 'a' && h <= 'f':
					v |= h - 'a' + 10
				case h >= 'A' && h <= 'F':
					v |= h - 'A' + 10
				default:
					return "", fmt.Errorf("cluster: frame: bad \\u escape")
				}
			}
			out = append(out, v)
			i += 4
		default:
			return "", fmt.Errorf("cluster: frame: unknown escape \\%c", raw[i])
		}
	}
	return string(out), nil
}

// num parses a (possibly signed) decimal integer.
func (p *frameParser) num() (int64, error) {
	neg := false
	if p.i < len(p.b) && p.b[p.i] == '-' {
		neg = true
		p.i++
	}
	start := p.i
	var v int64
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + int64(c-'0')
		p.i++
	}
	if p.i == start {
		return 0, fmt.Errorf("cluster: frame: expected number at byte %d", start)
	}
	if neg {
		v = -v
	}
	return v, nil
}
