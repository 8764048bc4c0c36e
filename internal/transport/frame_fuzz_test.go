package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"

	"eagersgd/internal/comm"
	"eagersgd/internal/tensor"
)

// FuzzDecodeFrame feeds arbitrary byte streams to the TCP frame decoder. The
// decoder's contract under hostile input: it either returns a well-formed
// message (whose announced length it honoured) or a descriptive error — it
// must never panic, never allocate from a corrupt length header, and never
// leak a pooled vector on an error path. The seed corpus covers the
// interesting boundaries: a valid frame, truncations at every section, an
// oversized length header, the exact element limit, and garbage.
func FuzzDecodeFrame(f *testing.F) {
	valid := appendFrame(nil, comm.Message{Source: 1, Tag: 7, Data: tensor.Vector{1.5, -2.25, 3}})
	f.Add(valid)                                                                          // well-formed frame
	f.Add(valid[:3])                                                                      // truncated header
	f.Add(valid[:12])                                                                     // header only, payload missing
	f.Add(valid[:len(valid)-5])                                                           // truncated payload
	f.Add(append([]byte{}, valid[:12]...))                                                // header with no body
	f.Add([]byte{})                                                                       // empty stream
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // all-ones header (oversized length)
	atLimit := make([]byte, 12)
	binary.LittleEndian.PutUint32(atLimit[8:12], uint32(maxFrameElements))
	f.Add(atLimit) // exactly at the element limit, truncated payload
	overLimit := make([]byte, 12)
	binary.LittleEndian.PutUint32(overLimit[8:12], uint32(maxFrameElements)+1)
	f.Add(overLimit) // one past the element limit
	multi := append(append([]byte{}, valid...), valid...)
	f.Add(multi) // two frames back to back

	f.Fuzz(func(t *testing.T, data []byte) {
		before := tensor.ReadPoolStats()
		var hdr [12]byte
		var scratch []byte
		r := bytes.NewReader(data)
		for {
			m, err := decodeFrame(r, &hdr, &scratch)
			if err != nil {
				if err.Error() == "" {
					t.Fatal("decode error with empty message")
				}
				if !strings.Contains(err.Error(), "EOF") && err != io.EOF &&
					!strings.Contains(err.Error(), "transport") {
					t.Fatalf("decode error %q is not descriptive (no package context)", err)
				}
				break
			}
			if len(m.Data) > maxFrameElements {
				t.Fatalf("decoded frame with %d elements past the %d limit", len(m.Data), maxFrameElements)
			}
			tensor.PutVector(m.Data)
		}
		after := tensor.ReadPoolStats()
		if n := after.OutstandingSince(before); n != 0 {
			t.Fatalf("decode leaked %d pool leases on input %x%s", n, data, tensor.FormatLeaseReport())
		}
	})
}

// FuzzFrameRoundTrip fuzzes the encoder/decoder pair: any (source, tag,
// payload) message must survive append+decode bit for bit, including NaN and
// negative-zero payload bytes (the payload is reinterpreted from raw bytes to
// exercise every float pattern).
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(int32(0), int32(0), []byte{})
	f.Add(int32(3), int32(-1), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int32(-2), int32(1<<20), bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, source, tag int32, raw []byte) {
		n := len(raw) / 8
		payload := tensor.GetVector(n)
		for i := 0; i < n; i++ {
			payload[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8 : i*8+8]))
		}
		buf := appendFrame(nil, comm.Message{Source: int(source), Tag: int(tag), Data: payload})
		var hdr [12]byte
		var scratch []byte
		got, err := decodeFrame(bytes.NewReader(buf), &hdr, &scratch)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if got.Source != int(source) || got.Tag != int(tag) || len(got.Data) != n {
			t.Fatalf("round trip mangled header: got (%d, %d, %d)", got.Source, got.Tag, len(got.Data))
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(got.Data[i]) != binary.LittleEndian.Uint64(raw[i*8:i*8+8]) {
				t.Fatalf("payload bit pattern changed at element %d", i)
			}
		}
		tensor.PutVector(got.Data)
		tensor.PutVector(payload)
	})
}
