// Package fieldbus implements the insecure industrial fieldbus the paper's
// threat model assumes: a legacy, unauthenticated frame protocol carrying
// sensor blocks (XMEAS) from the process to the controllers and actuator
// blocks (XMV) back. Because frames carry no authentication, a
// man-in-the-middle can rewrite values in transit — exactly the adversary
// of Krotofil et al. that the attack package models.
//
// Three building blocks are provided: a binary frame codec with CRC-32
// integrity (against *accidental* corruption only — by design it offers no
// protection against an active attacker, who simply recomputes it), an
// in-memory Link with tap points, and a TCP transport with a MitM proxy for
// the live demo.
package fieldbus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Package-level sentinel errors.
var (
	// ErrFrameTooShort is returned when decoding truncated data.
	ErrFrameTooShort = errors.New("fieldbus: frame too short")
	// ErrBadMagic is returned when the frame preamble is wrong.
	ErrBadMagic = errors.New("fieldbus: bad magic")
	// ErrBadCRC is returned when the integrity check fails.
	ErrBadCRC = errors.New("fieldbus: CRC mismatch")
	// ErrBadFrame is returned for other malformed frames.
	ErrBadFrame = errors.New("fieldbus: malformed frame")
	// ErrTapViolation is returned when a MitM tap leaves a frame that can
	// no longer be encoded (empty or oversized Values, broken type). The
	// attacker model allows rewriting values in transit, not inventing
	// frames the wire format cannot carry — a tap that does is a harness
	// bug, surfaced as a typed error instead of a silent downstream failure.
	ErrTapViolation = errors.New("fieldbus: tap produced invalid frame")
)

// FrameType discriminates the two payload directions.
type FrameType uint8

// Frame types.
const (
	// FrameSensor carries an XMEAS block, process → controller.
	FrameSensor FrameType = iota + 1
	// FrameActuator carries an XMV block, controller → process.
	FrameActuator
)

// String implements fmt.Stringer.
func (t FrameType) String() string {
	switch t {
	case FrameSensor:
		return "sensor"
	case FrameActuator:
		return "actuator"
	default:
		return fmt.Sprintf("FrameType(%d)", int(t))
	}
}

const (
	frameMagic  = 0xC5A3
	headerBytes = 2 + 1 + 1 + 8 + 2 // magic, type, unit, seq, count
	crcBytes    = 4
	// MaxValues bounds the payload, comfortably above the 41 XMEAS block.
	MaxValues = 256
)

// Frame is one fieldbus datagram: a block of float64 process values with a
// sequence number and source unit id.
type Frame struct {
	Type   FrameType
	Unit   uint8
	Seq    uint64
	Values []float64
}

// MarshalTo encodes the frame into dst when its capacity suffices,
// otherwise into a fresh buffer — the allocation-free path for per-sample
// wire traffic. It returns the encoded slice.
//
//pcslint:hotpath
func (f *Frame) MarshalTo(dst []byte) ([]byte, error) {
	if f.Type != FrameSensor && f.Type != FrameActuator {
		return nil, fmt.Errorf("fieldbus: marshal type %d: %w", int(f.Type), ErrBadFrame)
	}
	if len(f.Values) == 0 || len(f.Values) > MaxValues {
		return nil, fmt.Errorf("fieldbus: marshal %d values: %w", len(f.Values), ErrBadFrame)
	}
	n := headerBytes + 8*len(f.Values) + crcBytes
	var buf []byte
	if cap(dst) >= n {
		buf = dst[:n]
	} else {
		//pcslint:ignore hotpath -- grow branch: taken until dst reaches the steady frame size, then the reuse branch wins forever
		buf = make([]byte, n)
	}
	binary.BigEndian.PutUint16(buf[0:], frameMagic)
	buf[2] = byte(f.Type)
	buf[3] = f.Unit
	binary.BigEndian.PutUint64(buf[4:], f.Seq)
	binary.BigEndian.PutUint16(buf[12:], uint16(len(f.Values)))
	off := headerBytes
	for _, v := range f.Values {
		binary.BigEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	crc := crc32.ChecksumIEEE(buf[:off])
	binary.BigEndian.PutUint32(buf[off:], crc)
	return buf, nil
}

// UnmarshalInto decodes a frame into f, verifying magic and CRC. The
// Values slice is reused when its capacity suffices, so a long-lived frame
// decodes per-sample traffic without allocating.
//
//pcslint:hotpath
func (f *Frame) UnmarshalInto(data []byte) error {
	if len(data) < headerBytes+crcBytes {
		return fmt.Errorf("fieldbus: %d bytes: %w", len(data), ErrFrameTooShort)
	}
	if binary.BigEndian.Uint16(data[0:]) != frameMagic {
		return ErrBadMagic
	}
	count := int(binary.BigEndian.Uint16(data[12:]))
	if count == 0 || count > MaxValues {
		return fmt.Errorf("fieldbus: count %d: %w", count, ErrBadFrame)
	}
	want := headerBytes + 8*count + crcBytes
	if len(data) < want {
		return fmt.Errorf("fieldbus: need %d bytes, have %d: %w", want, len(data), ErrFrameTooShort)
	}
	body := data[:want-crcBytes]
	crc := binary.BigEndian.Uint32(data[want-crcBytes:])
	if crc32.ChecksumIEEE(body) != crc {
		return ErrBadCRC
	}
	if t := FrameType(data[2]); t != FrameSensor && t != FrameActuator {
		return fmt.Errorf("fieldbus: type %d: %w", data[2], ErrBadFrame)
	}
	f.Type = FrameType(data[2])
	f.Unit = data[3]
	f.Seq = binary.BigEndian.Uint64(data[4:])
	if cap(f.Values) >= count {
		f.Values = f.Values[:count]
	} else {
		//pcslint:ignore hotpath -- grow branch: taken until the frame buffer reaches the stream width, then reused
		f.Values = make([]float64, count)
	}
	off := headerBytes
	for i := 0; i < count; i++ {
		f.Values[i] = math.Float64frombits(binary.BigEndian.Uint64(body[off:]))
		off += 8
	}
	return nil
}

// EncodedSize returns the wire size of a frame carrying n values.
func EncodedSize(n int) int { return headerBytes + 8*n + crcBytes }

// Clone returns a deep copy of the frame. Receive paths reuse their scratch
// frame across deliveries, so a handler that retains a frame past its
// return must clone it first.
func (f *Frame) Clone() *Frame {
	c := *f
	c.Values = append([]float64(nil), f.Values...)
	return &c
}

// checkTapped validates that a tap left the frame marshallable, wrapping
// ErrTapViolation otherwise — shared by every path that re-encodes or
// delivers a frame after a tap has run.
func checkTapped(f *Frame) error {
	if f.Type != FrameSensor && f.Type != FrameActuator {
		return fmt.Errorf("fieldbus: tap left frame type %d: %w", int(f.Type), ErrTapViolation)
	}
	if len(f.Values) == 0 || len(f.Values) > MaxValues {
		return fmt.Errorf("fieldbus: tap left %d values: %w", len(f.Values), ErrTapViolation)
	}
	return nil
}
