//go:build !(amd64 || arm64 || 386 || arm || riscv64 || loong64 || mipsle || mips64le || ppc64le || wasm)

package transport

import (
	"encoding/binary"
	"io"
	"math"
	"net"

	"eagersgd/internal/tensor"
)

// Portable fallback for big-endian (or otherwise unknown) architectures: the
// wire format stays little-endian, converted element by element.

// appendFloats appends data's wire encoding (little-endian float64s) to buf.
func appendFloats(buf []byte, data []float64) []byte {
	var tmp [8]byte
	for _, x := range data {
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(x))
		buf = append(buf, tmp[:]...)
	}
	return buf
}

// encodePayload appends data's wire bytes to bufs for a vectored write,
// converting element by element into enc (grown as needed and kept by the
// caller for the next frame). Nothing aliases the vector afterwards, so its lease is released
// immediately and the retained return is nil.
func encodePayload(bufs net.Buffers, data tensor.Vector, enc []byte) (net.Buffers, tensor.Vector, []byte) {
	enc = appendFloats(enc[:0], data)
	tensor.PutVector(data)
	if len(enc) > 0 {
		bufs = append(bufs, enc)
	}
	return bufs, nil, enc
}

// putFloats writes data's wire encoding (little-endian float64s) into dst,
// which must hold exactly 8*len(data) bytes, converting element by element.
func putFloats(dst []byte, data []float64) {
	for i, x := range data {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(x))
	}
}

// getFloats fills data from its wire encoding in src (8*len(data) bytes).
func getFloats(data tensor.Vector, src []byte) {
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// wireViewable: on big-endian targets wire and memory representations
// differ, so the ring transport's alias delivery and fill-send paths are
// compiled out in favour of the copying fallbacks.
const wireViewable = false

// floatsView would reinterpret a wire span as a float64 vector in place; on
// big-endian targets the representations differ, so there is no view and the
// ring transport's alias delivery falls back to copying.
func floatsView(span []byte, count int) (tensor.Vector, bool) {
	return nil, false
}

// readFloats fills data with count little-endian float64s read from r,
// staging the raw bytes in *scratch (grown once, reused across calls).
func readFloats(r io.Reader, data tensor.Vector, scratch *[]byte) error {
	need := 8 * len(data)
	buf := *scratch
	if cap(buf) < need {
		buf = make([]byte, need)
		*scratch = buf
	} else {
		buf = buf[:need]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return nil
}
