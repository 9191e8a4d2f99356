package fieldbus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
	"time"
)

// fuzzSeedFrames returns a few representative valid frames for seeding.
func fuzzSeedFrames() []*Frame {
	return []*Frame{
		{Type: FrameSensor, Unit: 0, Seq: 0, Values: []float64{0}},
		{Type: FrameActuator, Unit: 7, Seq: 42, Values: []float64{1.5, -2.25, math.Pi}},
		{Type: FrameSensor, Unit: 255, Seq: ^uint64(0), Values: make([]float64, MaxValues)},
		{Type: FrameSensor, Unit: 3, Seq: 9, Values: []float64{math.Inf(1), math.Inf(-1), math.NaN(), -0.0}},
	}
}

// FuzzFrameUnmarshal throws arbitrary bytes at the codec. Any input that
// decodes must carry exactly the values a scalar binary.BigEndian decode
// reads from its bytes, must re-encode to exactly the bytes that were
// decoded (the codec is canonical), and the re-encoded frame must
// round-trip bit-identically — NaN payloads included, since values travel
// as raw IEEE-754 bits.
func FuzzFrameUnmarshal(f *testing.F) {
	for _, fr := range fuzzSeedFrames() {
		data, err := fr.MarshalTo(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Corrupted seeds: truncation, bad magic, bad count, flipped CRC.
	valid, _ := (&Frame{Type: FrameSensor, Seq: 1, Values: []float64{1, 2}}).MarshalTo(nil)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:5])
	bad := append([]byte(nil), valid...)
	bad[0] ^= 0xFF
	f.Add(bad)
	big := append([]byte(nil), valid...)
	binary.BigEndian.PutUint16(big[12:], MaxValues+1)
	f.Add(big)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		if err := fr.UnmarshalInto(data); err != nil {
			return // malformed input must only error, never panic
		}
		if len(fr.Values) == 0 || len(fr.Values) > MaxValues {
			t.Fatalf("decoded %d values outside (0,%d]", len(fr.Values), MaxValues)
		}
		// The values against the scalar big-endian decode, bit for bit.
		for i, v := range fr.Values {
			if want := binary.BigEndian.Uint64(data[headerBytes+8*i:]); math.Float64bits(v) != want {
				t.Fatalf("value %d decoded as %#x, big-endian bytes hold %#x", i, math.Float64bits(v), want)
			}
		}
		out, err := fr.MarshalTo(nil)
		if err != nil {
			t.Fatalf("re-marshal of decoded frame failed: %v", err)
		}
		want := EncodedSize(len(fr.Values))
		if len(out) != want {
			t.Fatalf("re-marshal produced %d bytes, want %d", len(out), want)
		}
		// The decoder ignores trailing garbage; the decoded prefix must be
		// byte-identical to what Marshal produces.
		if !bytes.Equal(out, data[:want]) {
			t.Fatalf("codec not canonical:\ndecoded from: %x\nre-encoded:   %x", data[:want], out)
		}
		var back Frame
		if err := back.UnmarshalInto(out); err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if back.Type != fr.Type || back.Unit != fr.Unit || back.Seq != fr.Seq {
			t.Fatalf("header changed in round trip: %+v vs %+v", back, fr)
		}
		for i := range fr.Values {
			if math.Float64bits(back.Values[i]) != math.Float64bits(fr.Values[i]) {
				t.Fatalf("value %d changed bits: %x vs %x",
					i, math.Float64bits(back.Values[i]), math.Float64bits(fr.Values[i]))
			}
		}
	})
}

// FuzzReadFrame exercises the length-prefixed TCP framing: arbitrary byte
// streams must either yield a frame that survives a write/read round trip
// or fail cleanly. Oversized and truncated length prefixes must be
// rejected without reading the body.
func FuzzReadFrame(f *testing.F) {
	frame := func(fr *Frame) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, fr := range fuzzSeedFrames() {
		f.Add(frame(fr))
	}
	// Two frames back to back.
	two := append(frame(fuzzSeedFrames()[0]), frame(fuzzSeedFrames()[1])...)
	f.Add(two)
	// Oversized length prefix.
	over := make([]byte, 4)
	binary.BigEndian.PutUint32(over, uint32(EncodedSize(MaxValues))+1)
	f.Add(over)
	// Zero length prefix, truncated prefix, truncated body.
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0})
	f.Add(frame(fuzzSeedFrames()[1])[:10])

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &Frame{}
		if _, err := ReadFrameInto(bytes.NewReader(data), fr, nil); err != nil {
			return
		}
		// A parsed frame must survive the wire round trip unchanged.
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			t.Fatalf("re-write of read frame failed: %v", err)
		}
		back := &Frame{}
		if _, err := ReadFrameInto(&buf, back, nil); err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if back.Type != fr.Type || back.Unit != fr.Unit || back.Seq != fr.Seq ||
			len(back.Values) != len(fr.Values) {
			t.Fatalf("wire round trip changed frame: %+v vs %+v", back, fr)
		}
	})
}

// FuzzCaptureReader throws arbitrary bytes at the capture reader: truncated
// or corrupt capture files must yield typed errors — ErrBadCapture for
// structural damage, the codec's own sentinels for frame corruption, io.EOF
// only at a clean record boundary — and never panic. Frames that do decode
// must round-trip through a fresh capture bit-identically.
func FuzzCaptureReader(f *testing.F) {
	capture := func(frames ...*Frame) []byte {
		var buf bytes.Buffer
		cw, err := NewCaptureWriter(&buf)
		if err != nil {
			f.Fatal(err)
		}
		for i, fr := range frames {
			if err := cw.WriteAt(fr, time.Duration(i)*time.Millisecond); err != nil {
				f.Fatal(err)
			}
		}
		if err := cw.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := capture(fuzzSeedFrames()...)
	f.Add(valid)
	f.Add(capture())                   // header only
	f.Add(valid[:len(valid)-5])        // truncated mid-frame
	f.Add(valid[:len(captureMagic)+6]) // truncated mid-record-header
	bad := append([]byte(nil), valid...)
	bad[3] ^= 0xFF // corrupt magic
	f.Add(bad)
	big := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(big[len(captureMagic)+8:], ^uint32(0)) // absurd length
	f.Add(big)
	flip := append([]byte(nil), valid...)
	flip[len(flip)-1] ^= 0x01 // CRC damage in the last frame
	f.Add(flip)
	f.Add([]byte{})

	typedErr := func(err error) bool {
		return errors.Is(err, ErrBadCapture) || errors.Is(err, ErrBadMagic) ||
			errors.Is(err, ErrBadCRC) || errors.Is(err, ErrBadFrame) ||
			errors.Is(err, ErrFrameTooShort)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cr, err := NewCaptureReader(bytes.NewReader(data))
		if err != nil {
			if !typedErr(err) {
				t.Fatalf("untyped header error: %v", err)
			}
			return
		}
		var reFrames []*Frame
		var reTS []time.Duration
		for {
			ts, fr, err := next(cr)
			if err == io.EOF {
				break
			}
			if err != nil {
				if !typedErr(err) {
					t.Fatalf("untyped record error: %v", err)
				}
				return // damage ends the readable prefix; nothing more to check
			}
			if len(fr.Values) == 0 || len(fr.Values) > MaxValues {
				t.Fatalf("decoded %d values outside (0,%d]", len(fr.Values), MaxValues)
			}
			if len(reTS) > 0 && ts < reTS[len(reTS)-1] {
				t.Fatalf("timestamps not monotonic: %v after %v", ts, reTS[len(reTS)-1])
			}
			reFrames = append(reFrames, fr.Clone())
			reTS = append(reTS, ts)
		}
		// Every cleanly-read capture re-encodes to a capture that reads back
		// identically (the format is canonical given the arrival timeline).
		var buf bytes.Buffer
		cw, err := NewCaptureWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i, fr := range reFrames {
			if err := cw.WriteAt(fr, reTS[i]); err != nil {
				t.Fatalf("re-write of read frame failed: %v", err)
			}
		}
		if err := cw.Flush(); err != nil {
			t.Fatal(err)
		}
		back, err := NewCaptureReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for i := range reFrames {
			ts, fr, err := next(back)
			if err != nil {
				t.Fatalf("re-read record %d: %v", i, err)
			}
			if ts != reTS[i] || fr.Type != reFrames[i].Type || fr.Unit != reFrames[i].Unit ||
				fr.Seq != reFrames[i].Seq || len(fr.Values) != len(reFrames[i].Values) {
				t.Fatalf("capture round trip changed record %d", i)
			}
			for j := range fr.Values {
				if math.Float64bits(fr.Values[j]) != math.Float64bits(reFrames[i].Values[j]) {
					t.Fatalf("record %d value %d changed bits", i, j)
				}
			}
		}
		if _, _, err := next(back); err != io.EOF {
			t.Fatalf("re-read tail: want io.EOF, got %v", err)
		}
	})
}

// FuzzSegmentIndex throws arbitrary bytes at the index sidecar decoder:
// malformed sidecars must yield ErrBadIndex, never a panic, and any sidecar
// that decodes must re-encode byte-identically (the codec is canonical) —
// which is what lets sidecar existence double as a segment's seal marker.
func FuzzSegmentIndex(f *testing.F) {
	marshal := func(ix *SegmentIndex) []byte {
		data, err := MarshalIndex(ix)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(marshal(&SegmentIndex{}))
	f.Add(marshal(&SegmentIndex{
		Frames: 3,
		First:  time.Millisecond, Last: 5 * time.Millisecond,
		Units: []UnitRange{{Unit: 2, MinSeq: 1, MaxSeq: 3, First: time.Millisecond, Last: 5 * time.Millisecond, Frames: 3}},
	}))
	full := &SegmentIndex{Frames: 2, Last: time.Second}
	full.Units = []UnitRange{
		{Unit: 0, MinSeq: 0, MaxSeq: 0, First: 0, Last: 0, Frames: 1},
		{Unit: 255, MinSeq: ^uint64(0), MaxSeq: ^uint64(0), First: time.Second, Last: time.Second, Frames: 1},
	}
	valid := marshal(full)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // truncated
	crc := append([]byte(nil), valid...)
	crc[len(crc)-1] ^= 0x01 // CRC damage
	f.Add(crc)
	bad := append([]byte(nil), valid...)
	bad[0] ^= 0xFF // bad magic
	f.Add(bad)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := UnmarshalIndex(data)
		if err != nil {
			if !errors.Is(err, ErrBadIndex) {
				t.Fatalf("untyped index error: %v", err)
			}
			return
		}
		// Decoded invariants the store relies on.
		var sum uint64
		for i, u := range ix.Units {
			if i > 0 && u.Unit <= ix.Units[i-1].Unit {
				t.Fatal("decoded units not strictly sorted")
			}
			if u.First < ix.First || u.Last > ix.Last || u.MaxSeq < u.MinSeq {
				t.Fatalf("decoded unit %d outside segment ranges", u.Unit)
			}
			sum += u.Frames
		}
		if sum != ix.Frames {
			t.Fatalf("decoded unit frames sum %d, segment says %d", sum, ix.Frames)
		}
		out, err := MarshalIndex(ix)
		if err != nil {
			t.Fatalf("re-marshal of decoded index failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("index codec not canonical:\nin:  %x\nout: %x", data, out)
		}
	})
}

// TestReadFrameRejectsOversizedPrefix pins the bound the fuzzer relies on:
// a length prefix beyond the biggest legal frame must fail fast with
// ErrBadFrame, not attempt a huge allocation.
func TestReadFrameRejectsOversizedPrefix(t *testing.T) {
	var buf bytes.Buffer
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(EncodedSize(MaxValues))+1)
	buf.Write(lenBuf[:])
	var f Frame
	if _, err := ReadFrameInto(&buf, &f, nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversized prefix: want ErrBadFrame, got %v", err)
	}
	binary.BigEndian.PutUint32(lenBuf[:], 0)
	if _, err := ReadFrameInto(bytes.NewReader(lenBuf[:]), &f, nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("zero prefix: want ErrBadFrame, got %v", err)
	}
	if _, err := ReadFrameInto(bytes.NewReader([]byte{0, 1}), &f, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated prefix: want ErrUnexpectedEOF, got %v", err)
	}
}
