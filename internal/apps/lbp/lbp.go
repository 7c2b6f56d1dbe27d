// Package lbp implements Local Binary Patterns face verification (Ahonen et
// al. [3] in the paper), the GPU kernel of the §6.4 multi-tier Face
// Verification server: a received face image is compared against the
// database image for the claimed identity; the comparison is an LBP
// histogram chi-square distance under a threshold.
//
// Images are 32x32 grayscale ("images from a color FERET Database resized to
// 32x32", §6.4).
package lbp

import "fmt"

// Image geometry.
const (
	Size       = 32
	ImageBytes = Size * Size
	// cells per side: 4x4 grid of 8x8 cells, 256-bin histogram each.
	cells     = 4
	cellSize  = Size / cells
	histBins  = 256
	histWords = cells * cells * histBins
)

// Histogram is the concatenated per-cell LBP histogram of one image.
type Histogram [histWords]uint16

// Compute extracts the LBP histogram of a 32x32 image. Each pixel's code
// sets bit i when its i-th neighbour, clockwise from top-left, is >= the
// pixel; a neighbour outside the image reads as 0.
func Compute(img []byte) (Histogram, error) {
	var h Histogram
	if len(img) != ImageBytes {
		return h, fmt.Errorf("lbp: image is %d bytes, want %d", len(img), ImageBytes)
	}
	// A one-pixel zero border stands in for the out-of-image neighbours.
	var p [Size + 2][Size + 2]byte
	for y := 0; y < Size; y++ {
		copy(p[y+1][1:Size+1], img[y*Size:(y+1)*Size])
	}
	for y := 0; y < Size; y++ {
		up, mid, dn := &p[y], &p[y+1], &p[y+2]
		for cx := 0; cx < cells; cx++ {
			cell := (y/cellSize)*cells + cx
			bins := (*[histBins]uint16)(h[cell*histBins : (cell+1)*histBins])
			for x := cx * cellSize; x < (cx+1)*cellSize; x++ {
				c := mid[x+1]
				var code byte
				if up[x] >= c {
					code |= 1 << 0
				}
				if up[x+1] >= c {
					code |= 1 << 1
				}
				if up[x+2] >= c {
					code |= 1 << 2
				}
				if mid[x+2] >= c {
					code |= 1 << 3
				}
				if dn[x+2] >= c {
					code |= 1 << 4
				}
				if dn[x+1] >= c {
					code |= 1 << 5
				}
				if dn[x] >= c {
					code |= 1 << 6
				}
				if mid[x] >= c {
					code |= 1 << 7
				}
				bins[code]++
			}
		}
	}
	return h, nil
}

// ChiSquare computes the chi-square distance between two histograms:
// sum((a-b)^2 / (a+b)) over non-empty bins. Zero iff identical.
func ChiSquare(a, b *Histogram) float64 {
	var d float64
	for i := range a {
		x, y := float64(a[i]), float64(b[i])
		if s := x + y; s > 0 {
			diff := x - y
			d += diff * diff / s
		}
	}
	return d
}

// DefaultThreshold separates same/different faces for the synthetic corpus.
const DefaultThreshold = 120.0

// Verify reports whether probe and reference depict the same face under the
// threshold.
func Verify(probe, reference []byte, threshold float64) (bool, float64, error) {
	hp, err := Compute(probe)
	if err != nil {
		return false, 0, err
	}
	hr, err := Compute(reference)
	if err != nil {
		return false, 0, err
	}
	d := ChiSquare(&hp, &hr)
	return d <= threshold, d, nil
}

// ---------------------------------------------------------------------------
// Synthetic face corpus

// SynthFace renders a deterministic 32x32 pseudo-face for an identity:
// smooth gradients plus identity-specific feature blobs, so that different
// identities are far apart in LBP space while re-renderings of the same
// identity (with mild noise) stay close.
func SynthFace(id uint32, noise uint32) []byte {
	img := make([]byte, ImageBytes)
	rng := uint64(id)*0x9E3779B97F4A7C15 + 0x1234567
	next := func() uint32 {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return uint32(rng * 0x2545F4914F6CDD1D >> 32)
	}
	// Base gradient varies per identity.
	gx, gy := int(next()%5)+1, int(next()%5)+1
	for y := 0; y < Size; y++ {
		for x := 0; x < Size; x++ {
			img[y*Size+x] = byte((x*gx + y*gy) * 4 % 200)
		}
	}
	// Feature blobs ("eyes", "mouth") at identity-specific positions.
	for b := 0; b < 6; b++ {
		cx, cy := int(next()%28)+2, int(next()%28)+2
		v := byte(next()%128 + 127)
		for dy := -2; dy <= 2; dy++ {
			for dx := -2; dx <= 2; dx++ {
				x, y := cx+dx, cy+dy
				if x >= 0 && x < Size && y >= 0 && y < Size && dx*dx+dy*dy <= 4 {
					img[y*Size+x] = v
				}
			}
		}
	}
	// Mild capture noise: flip a few low-order pixels deterministically.
	nr := uint64(noise)*0xD1342543DE82EF95 + 1
	for i := 0; i < int(noise%8); i++ {
		nr ^= nr >> 13
		nr ^= nr << 7
		pos := int(nr % ImageBytes)
		img[pos] ^= 0x04
	}
	return img
}
