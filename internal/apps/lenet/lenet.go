// Package lenet implements the LeNet-5 convolutional network forward pass
// used by the paper's model-serving server (§6.3): 28x28 grayscale digits in,
// 10 class scores out. The network is executed for real (float32 arithmetic
// in Go standing in for the TVM-generated GPU kernels), so the simulated
// service computes genuine answers; the *time* a request occupies the GPU is
// taken from the calibrated model (LeNetServiceK40/K80).
//
// Weights are deterministic pseudo-random (the paper's accuracy is not under
// test — its serving architecture is), so every simulation run classifies
// identically.
package lenet

import (
	"fmt"
	"math"
)

// Input geometry (MNIST).
const (
	InputSize  = 28
	InputBytes = InputSize * InputSize
	NumClasses = 10
)

// Network holds the LeNet-5 parameters.
type Network struct {
	conv1W [6][5][5]float32 // 6 filters over 1 input channel
	conv1B [6]float32
	conv2W [16][6][5][5]float32
	conv2B [16]float32
	fc1W   [][]float32 // 120 x 400
	fc1B   []float32
	fc2W   [][]float32 // 84 x 120
	fc2B   []float32
	fc3W   [][]float32 // 10 x 84
	fc3B   []float32
}

// New builds a network with deterministic pseudo-random weights derived from
// seed.
func New(seed uint64) *Network {
	rng := seed ^ 0x9E3779B97F4A7C15
	if rng == 0 {
		rng = 1
	}
	next := func() float32 {
		// xorshift64*; scaled to a small symmetric range.
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		v := rng * 0x2545F4914F6CDD1D
		return (float32(v>>40)/float32(1<<24) - 0.5) * 0.25
	}
	n := &Network{}
	for f := 0; f < 6; f++ {
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				n.conv1W[f][i][j] = next()
			}
		}
		n.conv1B[f] = next()
	}
	for f := 0; f < 16; f++ {
		for c := 0; c < 6; c++ {
			for i := 0; i < 5; i++ {
				for j := 0; j < 5; j++ {
					n.conv2W[f][c][i][j] = next()
				}
			}
		}
		n.conv2B[f] = next()
	}
	mat := func(rows, cols int) ([][]float32, []float32) {
		w := make([][]float32, rows)
		for r := range w {
			w[r] = make([]float32, cols)
			for c := range w[r] {
				w[r][c] = next()
			}
		}
		b := make([]float32, rows)
		for r := range b {
			b[r] = next()
		}
		return w, b
	}
	n.fc1W, n.fc1B = mat(120, 400)
	n.fc2W, n.fc2B = mat(84, 120)
	n.fc3W, n.fc3B = mat(10, 84)
	return n
}

func relu(x float32) float32 {
	if x < 0 {
		return 0
	}
	return x
}

// Infer runs the forward pass on a 28x28 image given as InputBytes bytes
// (row-major, 0..255) and returns the 10 class scores.
//
// Infer is bit-identical to InferReference: every output element receives the
// same float32 operations in the same order. A convolution element starts at
// its bias and adds w·x over the taps in (c, ky, kx) lexicographic order; a
// tap that falls in conv1's zero padding adds w·0, as the reference's
// out-of-bounds read does. A dense element starts at its bias and adds w·x
// over its inputs in ascending order. Only the loop structure and the memory
// layout differ, and Infer allocates nothing.
func (n *Network) Infer(img []byte) ([NumClasses]float32, error) {
	var out [NumClasses]float32
	if len(img) != InputBytes {
		return out, fmt.Errorf("lenet: input is %d bytes, want %d", len(img), InputBytes)
	}
	// Normalize into a zero-padded frame: pad 2 on every side, so conv1 needs
	// no bounds test.
	const padded = InputSize + 4
	var in [padded][padded]float32
	for i := 0; i < InputSize; i++ {
		row := img[i*InputSize : (i+1)*InputSize]
		dst := in[i+2][2 : 2+InputSize]
		for j, px := range row {
			dst[j] = float32(px)/255*2 - 1
		}
	}
	// conv1: 5x5, pad 2 -> 6 x 28 x 28, accumulated in place per filter,
	// then ReLU + 2x2 max-pool straight off the accumulator -> 6 x 14 x 14.
	var p1 [6][14][14]float32
	var acc1 [InputSize][InputSize]float32
	for f := 0; f < 6; f++ {
		for y := range acc1 {
			a := acc1[y][:]
			fill(a, n.conv1B[f])
			for ky := 0; ky < 5; ky++ {
				convRow(a, in[y+ky][:], &n.conv1W[f][ky])
			}
		}
		for y := range p1[f] {
			poolRow(p1[f][y][:], acc1[2*y][:], acc1[2*y+1][:])
		}
	}
	// conv2: 5x5 valid -> 16 x 10 x 10, then ReLU + 2x2 max-pool -> 16 x 5 x 5
	// = 400, flattened channel-major.
	var flat [400]float32
	var acc2 [10][10]float32
	for f := 0; f < 16; f++ {
		for y := range acc2 {
			a := acc2[y][:]
			fill(a, n.conv2B[f])
			for c := 0; c < 6; c++ {
				for ky := 0; ky < 5; ky++ {
					convRow(a, p1[c][y+ky][:], &n.conv2W[f][c][ky])
				}
			}
		}
		for y := 0; y < 5; y++ {
			o := f*25 + y*5
			poolRow(flat[o:o+5], acc2[2*y][:], acc2[2*y+1][:])
		}
	}
	// fc1 -> ReLU -> fc2 -> ReLU -> fc3.
	var h1 [120]float32
	var h2 [84]float32
	denseInto(h1[:], n.fc1W, n.fc1B, flat[:], true)
	denseInto(h2[:], n.fc2W, n.fc2B, h1[:], true)
	denseInto(out[:], n.fc3W, n.fc3B, h2[:], false)
	return out, nil
}

func fill(a []float32, v float32) {
	for i := range a {
		a[i] = v
	}
}

// convRow adds one 5-tap kernel row to an accumulator row a, reading the
// source row src (len(a)+4 wide). Each element adds its taps kx ascending.
func convRow(a, src []float32, w *[5]float32) {
	n := len(a)
	s0, s1, s2, s3, s4 := src[:n], src[1:n+1], src[2:n+2], src[3:n+3], src[4:n+4]
	w0, w1, w2, w3, w4 := w[0], w[1], w[2], w[3], w[4]
	for x := range a {
		s := a[x]
		s += w0 * s0[x]
		s += w1 * s1[x]
		s += w2 * s2[x]
		s += w3 * s3[x]
		s += w4 * s4[x]
		a[x] = s
	}
}

// poolRow writes one row of ReLU + 2x2 max-pool from the accumulator rows r0
// and r1, comparing each window in the reference pool's order: top-left,
// top-right, bottom-left, bottom-right.
func poolRow(dst, r0, r1 []float32) {
	for x := range dst {
		m := relu(r0[2*x])
		if v := relu(r0[2*x+1]); v > m {
			m = v
		}
		if v := relu(r1[2*x]); v > m {
			m = v
		}
		if v := relu(r1[2*x+1]); v > m {
			m = v
		}
		dst[x] = m
	}
}

// denseInto computes out = w·in + b (ReLU'd if act) row by row. Four rows
// share each pass over in, each with its own sum in the same order as dense:
// bias, then in[0], in[1], ... The four independent sums hide add latency.
func denseInto(out []float32, w [][]float32, b []float32, in []float32, act bool) {
	r := 0
	for ; r+4 <= len(out); r += 4 {
		w0, w1, w2, w3 := w[r][:len(in)], w[r+1][:len(in)], w[r+2][:len(in)], w[r+3][:len(in)]
		s0, s1, s2, s3 := b[r], b[r+1], b[r+2], b[r+3]
		for c, v := range in {
			s0 += w0[c] * v
			s1 += w1[c] * v
			s2 += w2[c] * v
			s3 += w3[c] * v
		}
		if act {
			s0, s1, s2, s3 = relu(s0), relu(s1), relu(s2), relu(s3)
		}
		out[r], out[r+1], out[r+2], out[r+3] = s0, s1, s2, s3
	}
	for ; r < len(out); r++ {
		row := w[r][:len(in)]
		s := b[r]
		for c, v := range in {
			s += row[c] * v
		}
		if act {
			s = relu(s)
		}
		out[r] = s
	}
}

// dense is InferReference's fully connected layer: a fresh output slice,
// one row at a time.
func dense(w [][]float32, b []float32, in []float32, act bool) []float32 {
	out := make([]float32, len(w))
	for r := range w {
		sum := b[r]
		row := w[r]
		for c, v := range in {
			sum += row[c] * v
		}
		if act {
			sum = relu(sum)
		}
		out[r] = sum
	}
	return out
}

// Classify returns the argmax class for the image.
func (n *Network) Classify(img []byte) (int, error) {
	scores, err := n.Infer(img)
	if err != nil {
		return 0, err
	}
	best, bestV := 0, float32(math.Inf(-1))
	for i, v := range scores {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best, nil
}

// ---------------------------------------------------------------------------
// Synthetic MNIST-shaped inputs

// digitFont is a 5x7 bitmap font for digits 0-9, used to render MNIST-like
// test images without shipping the dataset.
var digitFont = [10][7]uint8{
	{0b01110, 0b10001, 0b10011, 0b10101, 0b11001, 0b10001, 0b01110}, // 0
	{0b00100, 0b01100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110}, // 1
	{0b01110, 0b10001, 0b00001, 0b00110, 0b01000, 0b10000, 0b11111}, // 2
	{0b01110, 0b10001, 0b00001, 0b00110, 0b00001, 0b10001, 0b01110}, // 3
	{0b00010, 0b00110, 0b01010, 0b10010, 0b11111, 0b00010, 0b00010}, // 4
	{0b11111, 0b10000, 0b11110, 0b00001, 0b00001, 0b10001, 0b01110}, // 5
	{0b00110, 0b01000, 0b10000, 0b11110, 0b10001, 0b10001, 0b01110}, // 6
	{0b11111, 0b00001, 0b00010, 0b00100, 0b01000, 0b01000, 0b01000}, // 7
	{0b01110, 0b10001, 0b10001, 0b01110, 0b10001, 0b10001, 0b01110}, // 8
	{0b01110, 0b10001, 0b10001, 0b01111, 0b00001, 0b00010, 0b01100}, // 9
}

// RenderDigit draws digit d (0-9) as a 28x28 grayscale image, offset by
// (dx, dy) pixels for variety. Pixels are 0 or 255 with a soft border.
func RenderDigit(d, dx, dy int) []byte {
	if d < 0 || d > 9 {
		d = ((d % 10) + 10) % 10
	}
	img := make([]byte, InputBytes)
	const scale = 3 // 5x7 font -> 15x21 glyph, centered in 28x28
	baseX, baseY := (InputSize-5*scale)/2+dx, (InputSize-7*scale)/2+dy
	for row := 0; row < 7; row++ {
		bits := digitFont[d][row]
		for col := 0; col < 5; col++ {
			if bits&(1<<(4-col)) == 0 {
				continue
			}
			for sy := 0; sy < scale; sy++ {
				for sx := 0; sx < scale; sx++ {
					y, x := baseY+row*scale+sy, baseX+col*scale+sx
					if y >= 0 && y < InputSize && x >= 0 && x < InputSize {
						img[y*InputSize+x] = 255
					}
				}
			}
		}
	}
	return img
}

// ---------------------------------------------------------------------------
// Reference implementation (for equivalence testing)

// InferReference computes the forward pass with a deliberately naive,
// index-by-index implementation (bounds-checked gathers instead of the
// structured loops above). It exists so property tests can check the
// optimized path against an independent formulation.
func (n *Network) InferReference(img []byte) ([NumClasses]float32, error) {
	var out [NumClasses]float32
	if len(img) != InputBytes {
		return out, fmt.Errorf("lenet: input is %d bytes, want %d", len(img), InputBytes)
	}
	at := func(buf []float32, w, y, x int) float32 {
		if y < 0 || x < 0 || x >= w || y*w+x >= len(buf) {
			return 0
		}
		return buf[y*w+x]
	}
	in := make([]float32, InputBytes)
	for i, px := range img {
		in[i] = float32(px)/255*2 - 1
	}
	// conv1 (pad 2) + ReLU.
	c1 := make([][]float32, 6)
	for f := 0; f < 6; f++ {
		c1[f] = make([]float32, InputSize*InputSize)
		for y := 0; y < InputSize; y++ {
			for x := 0; x < InputSize; x++ {
				sum := n.conv1B[f]
				for ky := 0; ky < 5; ky++ {
					for kx := 0; kx < 5; kx++ {
						sum += n.conv1W[f][ky][kx] * at(in, InputSize, y+ky-2, x+kx-2)
					}
				}
				c1[f][y*InputSize+x] = relu(sum)
			}
		}
	}
	maxPool := func(src []float32, w int) []float32 {
		h := len(src) / w
		out := make([]float32, (w/2)*(h/2))
		for y := 0; y < h/2; y++ {
			for x := 0; x < w/2; x++ {
				m := src[(2*y)*w+2*x]
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						if v := src[(2*y+dy)*w+2*x+dx]; v > m {
							m = v
						}
					}
				}
				out[y*(w/2)+x] = m
			}
		}
		return out
	}
	p1 := make([][]float32, 6)
	for f := range c1 {
		p1[f] = maxPool(c1[f], InputSize)
	}
	// conv2 (valid) + ReLU.
	c2 := make([][]float32, 16)
	for f := 0; f < 16; f++ {
		c2[f] = make([]float32, 10*10)
		for y := 0; y < 10; y++ {
			for x := 0; x < 10; x++ {
				sum := n.conv2B[f]
				for c := 0; c < 6; c++ {
					for ky := 0; ky < 5; ky++ {
						for kx := 0; kx < 5; kx++ {
							sum += n.conv2W[f][c][ky][kx] * at(p1[c], 14, y+ky, x+kx)
						}
					}
				}
				c2[f][y*10+x] = relu(sum)
			}
		}
	}
	flat := make([]float32, 0, 400)
	for f := 0; f < 16; f++ {
		flat = append(flat, maxPool(c2[f], 10)...)
	}
	h1 := dense(n.fc1W, n.fc1B, flat, true)
	h2 := dense(n.fc2W, n.fc2B, h1, true)
	h3 := dense(n.fc3W, n.fc3B, h2, false)
	copy(out[:], h3)
	return out, nil
}
