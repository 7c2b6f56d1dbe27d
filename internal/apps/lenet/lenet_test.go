package lenet

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestInferShapeAndDeterminism(t *testing.T) {
	n := New(1)
	img := RenderDigit(3, 0, 0)
	a, err := n.Infer(img)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Infer(img)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("inference must be deterministic")
	}
	anyNonZero := false
	for _, v := range a {
		if v != 0 {
			anyNonZero = true
		}
	}
	if !anyNonZero {
		t.Fatal("all-zero scores: network is degenerate")
	}
}

func TestInferRejectsBadInput(t *testing.T) {
	n := New(1)
	if _, err := n.Infer(make([]byte, 100)); err == nil {
		t.Fatal("short input must fail")
	}
	if _, err := n.Classify(make([]byte, InputBytes+1)); err == nil {
		t.Fatal("long input must fail")
	}
}

func TestSameSeedSameNetwork(t *testing.T) {
	img := RenderDigit(7, 1, -1)
	a, _ := New(42).Infer(img)
	b, _ := New(42).Infer(img)
	if a != b {
		t.Fatal("same seed must build identical networks")
	}
	c, _ := New(43).Infer(img)
	if a == c {
		t.Fatal("different seeds should give different networks")
	}
}

func TestClassifyInRange(t *testing.T) {
	n := New(5)
	for d := 0; d < 10; d++ {
		cls, err := n.Classify(RenderDigit(d, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		if cls < 0 || cls >= NumClasses {
			t.Fatalf("class %d out of range", cls)
		}
	}
}

func TestDistinctDigitsDistinctScores(t *testing.T) {
	n := New(5)
	s0, _ := n.Infer(RenderDigit(0, 0, 0))
	s1, _ := n.Infer(RenderDigit(1, 0, 0))
	if s0 == s1 {
		t.Fatal("different images must yield different score vectors")
	}
}

func TestRenderDigit(t *testing.T) {
	img := RenderDigit(8, 0, 0)
	if len(img) != InputBytes {
		t.Fatalf("image size %d", len(img))
	}
	on := 0
	for _, px := range img {
		if px == 255 {
			on++
		} else if px != 0 {
			t.Fatal("pixels must be 0 or 255")
		}
	}
	if on < 50 || on > 400 {
		t.Fatalf("glyph coverage %d pixels, implausible", on)
	}
	// Out-of-range digits wrap instead of panicking.
	if !bytes.Equal(RenderDigit(13, 0, 0), RenderDigit(3, 0, 0)) {
		t.Fatal("digit 13 should render like 3")
	}
	if !bytes.Equal(RenderDigit(-3, 0, 0), RenderDigit(7, 0, 0)) {
		t.Fatal("digit -3 should render like 7")
	}
	// Offsets translate the glyph.
	if bytes.Equal(RenderDigit(8, 0, 0), RenderDigit(8, 3, 0)) {
		t.Fatal("offset rendering must move pixels")
	}
}

// Property: shifting a glyph within the frame keeps the output finite and
// the class within range (robustness of the numeric pipeline).
func TestInferTotalProperty(t *testing.T) {
	n := New(9)
	prop := func(d, dx, dy int8) bool {
		img := RenderDigit(int(d), int(dx)%6, int(dy)%6)
		scores, err := n.Infer(img)
		if err != nil {
			return false
		}
		for _, v := range scores {
			if v != v { // NaN
				return false
			}
			if v > 1e6 || v < -1e6 {
				return false
			}
		}
		cls, err := n.Classify(img)
		return err == nil && cls >= 0 && cls < NumClasses
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// sameBits reports whether two score vectors are bit-for-bit equal.
func sameBits(a, b [NumClasses]float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// argmax mirrors Classify's tie-breaking (first maximum wins).
func argmax(scores [NumClasses]float32) int {
	best, bestV := 0, float32(math.Inf(-1))
	for i, v := range scores {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Property: the structured forward pass is bit-identical to the naive
// reference implementation (same float32 operations in the same order per
// output element), on perturbed glyphs and on arbitrary pixel data.
func TestInferMatchesReferenceProperty(t *testing.T) {
	n := New(77)
	prop := func(d int8, dx, dy int8, noise uint8) bool {
		img := RenderDigit(int(d), int(dx)%4, int(dy)%4)
		// Perturb some pixels for input diversity.
		for i := 0; i < int(noise); i++ {
			img[(i*131)%len(img)] ^= 0x55
		}
		a, err1 := n.Infer(img)
		b, err2 := n.InferReference(img)
		return err1 == nil && err2 == nil && sameBits(a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
	random := func(img [InputBytes]byte) bool {
		a, err1 := n.Infer(img[:])
		b, err2 := n.InferReference(img[:])
		return err1 == nil && err2 == nil && sameBits(a, b)
	}
	if err := quick.Check(random, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Every image the LeNet experiments and the benchmark send — digits 0-9 at
// offsets dx, dy in [-2, 2] — scores bit-identically to the reference and
// classifies the same, under both weight seeds those callers use.
func TestInferBitIdenticalOnRequestImages(t *testing.T) {
	for _, seed := range []uint64{42, 77} {
		n := New(seed)
		for d := 0; d < 10; d++ {
			for dx := -2; dx <= 2; dx++ {
				for dy := -2; dy <= 2; dy++ {
					img := RenderDigit(d, dx, dy)
					got, err := n.Infer(img)
					if err != nil {
						t.Fatal(err)
					}
					want, err := n.InferReference(img)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(got, want) {
						t.Fatalf("seed %d digit %d (%d,%d): Infer %v != reference %v", seed, d, dx, dy, got, want)
					}
					cls, err := n.Classify(img)
					if err != nil {
						t.Fatal(err)
					}
					if ref := argmax(want); cls != ref {
						t.Fatalf("seed %d digit %d (%d,%d): Classify %d, reference %d", seed, d, dx, dy, cls, ref)
					}
				}
			}
		}
	}
}

// The forward pass runs once per served request; it must not allocate.
func TestInferAllocatesNothing(t *testing.T) {
	n := New(1)
	img := RenderDigit(7, 1, -1)
	if a := testing.AllocsPerRun(100, func() { _, _ = n.Infer(img) }); a != 0 {
		t.Fatalf("Infer allocates %v times per call", a)
	}
	if a := testing.AllocsPerRun(100, func() { _, _ = n.Classify(img) }); a != 0 {
		t.Fatalf("Classify allocates %v times per call", a)
	}
}

func TestInferReferenceRejectsBadInput(t *testing.T) {
	if _, err := New(1).InferReference(make([]byte, 5)); err == nil {
		t.Fatal("short input must fail")
	}
}
