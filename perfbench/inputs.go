package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"unsafe"
)

// Message sizes of the small-message workloads, in bytes of BYTE.
var smallSizes = []int{8, 64, 512, 1024, 4096}

const (
	maxSmall   = 4096
	sizeRing   = 1 << 14 // per-stream size ring; op i uses entry i mod sizeRing
	stampBytes = 24      // full stamp; 8-byte messages carry only the check word

	solverElems    = 1 << 17 // 1 MiB of DOUBLE
	solverVariants = 4       // distinct input vectors per rank
	solverMaxValue = 1024    // inputs are integers in [0, solverMaxValue)
)

// inputs is everything a workload's ranks send, generated from the seed
// before the job starts: per-stream message sizes, the byte pattern that
// fills small payloads, and the solver's integer-valued vectors with
// their exact sums. The ranks only read it.
type inputs struct {
	seed    int64
	sizes   [2][]int32 // one size stream per sender
	pattern []byte     // payload body template
	// vec[r][v] is variant v of rank r's solver vector; choice[i][r]
	// picks the variant rank r contributes at step i; sum[v0][v1] is the
	// exact element-wise sum of vec[0][v0] and vec[1][v1].
	vec    [2][solverVariants][]float64
	choice [][2]uint8
	sum    [solverVariants][solverVariants][]float64
}

func newInputs(seed int64, solver bool) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed, pattern: make([]byte, maxSmall)}
	for s := range in.sizes {
		in.sizes[s] = make([]int32, sizeRing)
		for i := range in.sizes[s] {
			in.sizes[s][i] = int32(smallSizes[rng.Intn(len(smallSizes))])
		}
	}
	rng.Read(in.pattern)
	if !solver {
		return in
	}
	for r := range in.vec {
		for v := range in.vec[r] {
			x := make([]float64, solverElems)
			for i := range x {
				x[i] = float64(rng.Intn(solverMaxValue))
			}
			in.vec[r][v] = x
		}
	}
	in.choice = make([][2]uint8, sizeRing)
	for i := range in.choice {
		in.choice[i] = [2]uint8{uint8(rng.Intn(solverVariants)), uint8(rng.Intn(solverVariants))}
	}
	for a := range in.sum {
		for b := range in.sum[a] {
			s := make([]float64, solverElems)
			for i := range s {
				s[i] = in.vec[0][a][i] + in.vec[1][b][i]
			}
			in.sum[a][b] = s
		}
	}
	return in
}

// size is the payload size of op seq on stream s.
func (in *inputs) size(s int, seq int64) int { return int(in.sizes[s][seq&(sizeRing-1)]) }

// checkWord mixes (seed, stream, seq, size) into the 64-bit word every
// payload starts with (splitmix64 finaliser).
func (in *inputs) checkWord(s int, seq int64, size int) uint64 {
	x := uint64(in.seed) ^ uint64(seq)*0x9E3779B97F4A7C15 ^ uint64(size)<<40 ^ uint64(s)<<56
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// fill writes op seq's payload into buf[:size]: the stamp, then the
// pattern. Only the stamp changes between ops of the same size, so a
// buffer filled once per size needs only restamp afterwards.
func (in *inputs) fill(buf []byte, s int, seq int64, size int) {
	copy(buf[:size], in.pattern[:size])
	in.restamp(buf, s, seq, size)
}

// restamp rewrites the stamp of a buffer whose body already holds the
// pattern.
func (in *inputs) restamp(buf []byte, s int, seq int64, size int) {
	binary.LittleEndian.PutUint64(buf, in.checkWord(s, seq, size))
	if size >= stampBytes {
		binary.LittleEndian.PutUint64(buf[8:], uint64(seq))
		binary.LittleEndian.PutUint32(buf[16:], uint32(size))
		binary.LittleEndian.PutUint32(buf[20:], uint32(in.seed))
	}
}

// verify reports whether buf[:got] is exactly op seq's payload on
// stream s.
func (in *inputs) verify(buf []byte, got, s int, seq int64) bool {
	size := in.size(s, seq)
	if got != size || len(buf) < size {
		return false
	}
	if binary.LittleEndian.Uint64(buf) != in.checkWord(s, seq, size) {
		return false
	}
	body := 8
	if size >= stampBytes {
		if binary.LittleEndian.Uint64(buf[8:]) != uint64(seq) ||
			binary.LittleEndian.Uint32(buf[16:]) != uint32(size) ||
			binary.LittleEndian.Uint32(buf[20:]) != uint32(in.seed) {
			return false
		}
		body = stampBytes
	}
	return bytes.Equal(buf[body:size], in.pattern[body:size])
}

// solverIn returns rank r's input vector at step seq.
func (in *inputs) solverIn(r int, seq int64) []float64 {
	return in.vec[r][in.choice[seq&(sizeRing-1)][r]]
}

// solverSum returns the exact Allreduce SUM result of step seq.
func (in *inputs) solverSum(seq int64) []float64 {
	c := in.choice[seq&(sizeRing-1)]
	return in.sum[c[0]][c[1]]
}

// sameFloats compares two vectors bit for bit. Inputs and sums are
// small non-negative integers, so equal values have equal bits.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	ab := unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), len(a)*8)
	bb := unsafe.Slice((*byte)(unsafe.Pointer(&b[0])), len(b)*8)
	return bytes.Equal(ab, bb)
}
