package rtree

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzAppendMBR holds appendMBR's two-axis arm to the word loop every
// other dimensionality takes: on arbitrary words — ±0 ties, quiet and
// signalling NaNs in the first record or a later one, inverted boxes,
// infinities — both must write the same bytes.
func FuzzAppendMBR(f *testing.F) {
	words := func(ws ...float64) []byte {
		b := make([]byte, 0, 8*len(ws))
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
		}
		return b
	}
	nz, nan, inf := math.Copysign(0, -1), math.NaN(), math.Inf(1)
	snan := math.Float64frombits(0x7ff0000000000001)
	// Records are five words: per axis Min and Max, then the ref.
	f.Add(words(0, 0, nz, nz, 1, nz, nz, 0, 0, 2, 0, nz, nz, 0, 3))
	f.Add(words(nan, 1, 0.5, snan, 1, 0.25, nan, snan, 2, 2, -inf, inf, nan, nan, 3))
	f.Add(words(0.5, 1, 0.5, 0.25, 1, 1, 0.5, 0.75, 0.5, 2, 2, -1, inf, -inf, 3))
	f.Add(words(1, 2, 3, 4, 5))
	f.Fuzz(func(t *testing.T, data []byte) {
		const size, ref = 40, 99
		recs := data[:len(data)/size*size]
		if len(recs) == 0 {
			return
		}
		got := appendMBR(nil, recs, 2, ref)
		want := append([]byte(nil), recs[:size]...)
		unionRecords(want, recs[size:], 2)
		binary.LittleEndian.PutUint64(want[32:], ref)
		if !bytes.Equal(got, want) {
			t.Fatalf("the two-axis arm wrote % x, the word loop % x", got, want)
		}
	})
}
