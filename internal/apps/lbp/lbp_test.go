package lbp

import (
	"testing"
	"testing/quick"
)

// computeReference is the direct formulation of Compute: a bounds-checked
// neighbour read per tap and a neighbour table per pixel. Compute must match
// it exactly.
func computeReference(img []byte) Histogram {
	var h Histogram
	at := func(y, x int) byte {
		if y < 0 || y >= Size || x < 0 || x >= Size {
			return 0
		}
		return img[y*Size+x]
	}
	for y := 0; y < Size; y++ {
		for x := 0; x < Size; x++ {
			c := at(y, x)
			var code byte
			// Clockwise from top-left.
			neighbors := [8][2]int{
				{y - 1, x - 1}, {y - 1, x}, {y - 1, x + 1},
				{y, x + 1},
				{y + 1, x + 1}, {y + 1, x}, {y + 1, x - 1},
				{y, x - 1},
			}
			for bit, nb := range neighbors {
				if at(nb[0], nb[1]) >= c {
					code |= 1 << uint(bit)
				}
			}
			cell := (y/cellSize)*cells + x/cellSize
			h[cell*histBins+int(code)]++
		}
	}
	return h
}

// Compute equals the direct formulation on every image of the synthetic
// corpus: 200 identities, each clean and at three capture-noise levels.
func TestComputeMatchesReference(t *testing.T) {
	for id := uint32(0); id < 200; id++ {
		for _, noise := range []uint32{0, 3, id*3 + 1, 7} {
			img := SynthFace(id, noise)
			got, err := Compute(img)
			if err != nil {
				t.Fatal(err)
			}
			if got != computeReference(img) {
				t.Fatalf("identity %d noise %d: histogram differs from the reference", id, noise)
			}
		}
	}
}

// Property: Compute equals the direct formulation on arbitrary pixel data,
// including the zero pixels whose border compares are the edge case.
func TestComputeMatchesReferenceProperty(t *testing.T) {
	prop := func(img [ImageBytes]byte, zeros uint8) bool {
		for i := 0; i < int(zeros); i++ {
			img[(i*37)%ImageBytes] = 0
		}
		got, err := Compute(img[:])
		return err == nil && got == computeReference(img[:])
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeRejectsBadSize(t *testing.T) {
	if _, err := Compute(make([]byte, 100)); err == nil {
		t.Fatal("short image must fail")
	}
}

func TestHistogramMass(t *testing.T) {
	h, err := Compute(SynthFace(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, c := range h {
		total += int(c)
	}
	if total != ImageBytes {
		t.Fatalf("histogram mass %d, want one code per pixel (%d)", total, ImageBytes)
	}
}

func TestChiSquareIdentityZero(t *testing.T) {
	h, _ := Compute(SynthFace(7, 0))
	if d := ChiSquare(&h, &h); d != 0 {
		t.Fatalf("chi2(x,x) = %v", d)
	}
}

// Property: chi-square is symmetric and non-negative.
func TestChiSquareMetricProperties(t *testing.T) {
	prop := func(a, b uint32) bool {
		ha, _ := Compute(SynthFace(a, 0))
		hb, _ := Compute(SynthFace(b, 0))
		d1 := ChiSquare(&ha, &hb)
		d2 := ChiSquare(&hb, &ha)
		if d1 != d2 || d1 < 0 {
			return false
		}
		if a == b && d1 != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifySameIdentityUnderNoise(t *testing.T) {
	for id := uint32(1); id <= 20; id++ {
		ref := SynthFace(id, 0)
		probe := SynthFace(id, id*3+1) // mild capture noise
		ok, d, err := Verify(probe, ref, DefaultThreshold)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("identity %d rejected (distance %.1f)", id, d)
		}
	}
}

func TestVerifyDifferentIdentitiesRejected(t *testing.T) {
	accepted := 0
	for id := uint32(1); id <= 20; id++ {
		ref := SynthFace(id, 0)
		probe := SynthFace(id+100, 0)
		ok, _, _ := Verify(probe, ref, DefaultThreshold)
		if ok {
			accepted++
		}
	}
	if accepted > 2 {
		t.Fatalf("%d/20 impostors accepted; threshold too loose", accepted)
	}
}

func TestVerifyErrors(t *testing.T) {
	if _, _, err := Verify(make([]byte, 3), SynthFace(1, 0), DefaultThreshold); err == nil {
		t.Fatal("bad probe must fail")
	}
	if _, _, err := Verify(SynthFace(1, 0), make([]byte, 3), DefaultThreshold); err == nil {
		t.Fatal("bad reference must fail")
	}
}

func TestSynthFaceDeterministic(t *testing.T) {
	a := SynthFace(5, 2)
	b := SynthFace(5, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("synthetic faces must be deterministic")
		}
	}
	if len(a) != ImageBytes {
		t.Fatalf("face size %d", len(a))
	}
}
