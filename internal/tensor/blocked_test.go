package tensor

import (
	"testing"
)

// setWorkers pins the matmul worker budget for a test and restores the
// default on cleanup, so parallel-path tests cannot leak configuration
// into the rest of the package run.
func setWorkers(t *testing.T, n int) {
	t.Helper()
	SetMatMulWorkers(n)
	t.Cleanup(func() { SetMatMulWorkers(0) })
}

// TestMatMulBlockedMatchesSerial holds the blocked kernel to its contract:
// bit-identical output to the serial MatMul, across shapes that exercise
// partial row blocks, partial column tiles, and both the serial and the
// goroutine-parallel dispatch.
func TestMatMulBlockedMatchesSerial(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1},
		{3, 5, 7},                      // everything smaller than one tile
		{blockRows, 4, blockCols},      // exactly one tile
		{blockRows + 1, 3, blockCols},  // partial trailing row block
		{blockRows, 3, blockCols + 17}, // partial trailing column tile
		{2*blockRows + 5, 9, 2*blockCols + 33},
	}
	for _, workers := range []int{1, 4} {
		setWorkers(t, workers)
		for _, s := range shapes {
			r := NewRNG(int64(s.m*1000 + s.n))
			a := RandNormal(r, 0, 1, s.m, s.k)
			b := RandNormal(r, 0, 1, s.k, s.n)
			want := MatMul(a, b)
			got := MatMulBlocked(a, b)
			if !Equal(want, got) {
				t.Errorf("workers=%d %dx%d·%dx%d: MatMulBlocked differs from MatMul",
					workers, s.m, s.k, s.k, s.n)
			}
			out := New(s.m, s.n)
			out.Fill(42) // stale contents must be overwritten, not accumulated
			MatMulBlockedInto(out, a, b)
			if !Equal(want, out) {
				t.Errorf("workers=%d %dx%d·%dx%d: MatMulBlockedInto differs from MatMul",
					workers, s.m, s.k, s.k, s.n)
			}
		}
	}
}

// TestMatMulBlockedParallelAboveThreshold forces the FLOP volume over
// parallelThreshold with m spanning several row blocks, so the row-block
// fan-out path actually runs, and requires bit-identity with the serial
// kernel — the property bit-exact per-level references depend on.
func TestMatMulBlockedParallelAboveThreshold(t *testing.T) {
	m, k, n := 3*blockRows+7, 128, 160 // 199·128·160 ≈ 4.1M FLOP > 1<<21
	r := NewRNG(11)
	a := RandNormal(r, 0, 1, m, k)
	b := RandNormal(r, 0, 1, k, n)
	setWorkers(t, 1)
	want := MatMulBlocked(a, b)
	serial := MatMul(a, b)
	SetMatMulWorkers(4)
	got := MatMulBlocked(a, b)
	if !Equal(want, got) {
		t.Error("parallel blocked kernel differs from serial blocked kernel")
	}
	if !Equal(serial, got) {
		t.Error("parallel blocked kernel differs from serial MatMul")
	}
}

// TestMatMulBlockedSkipsZeros extends TestMatMulSkipsZeros to the blocked
// kernel: pruned (exact-zero) rows and scattered zeros must take the sparse
// skip in every tile and still produce bit-identical output, serial and
// parallel. The shape is large enough that zero rows cross block
// boundaries.
func TestMatMulBlockedSkipsZeros(t *testing.T) {
	m, k, n := 2*blockRows+3, 96, blockCols+19
	r := NewRNG(23)
	a := RandNormal(r, 0, 1, m, k)
	b := RandNormal(r, 0, 1, k, n)
	// Zero out full rows (as structured pruning would) and a scattered 50%
	// of the rest (as magnitude pruning does).
	ad := a.Data()
	for j := 0; j < k; j++ {
		ad[0*k+j] = 0
		ad[(blockRows+1)*k+j] = 0
		ad[(m-1)*k+j] = 0
	}
	for i := 0; i < len(ad); i += 2 {
		ad[i] = 0
	}
	for _, workers := range []int{1, 4} {
		setWorkers(t, workers)
		want := MatMul(a, b)
		got := MatMulBlocked(a, b)
		if !Equal(want, got) {
			t.Errorf("workers=%d: sparse blocked result differs from serial MatMul", workers)
		}
		for _, row := range []int{0, blockRows + 1, m - 1} {
			for j := 0; j < n; j++ {
				if got.At2(row, j) != 0 {
					t.Fatalf("workers=%d: zeroed row %d leaked %v at col %d",
						workers, row, got.At2(row, j), j)
				}
			}
		}
	}
}

// TestMatMulBlockedShapeErrors checks the blocked entry points panic with
// *ShapeError on the same malformed inputs the serial family rejects.
func TestMatMulBlockedShapeErrors(t *testing.T) {
	expectShapeError := func(name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: no panic on shape mismatch", name)
				return
			}
			if _, ok := r.(*ShapeError); !ok {
				t.Errorf("%s: panic value %T, want *ShapeError", name, r)
			}
		}()
		fn()
	}
	a := New(2, 3)
	b := New(4, 5) // inner mismatch: 3 vs 4
	expectShapeError("MatMulBlocked inner mismatch", func() { MatMulBlocked(a, b) })
	expectShapeError("MatMulBlocked non-2D", func() { MatMulBlocked(New(6), New(6, 1)) })
	good := New(3, 5)
	expectShapeError("MatMulBlockedInto bad out", func() { MatMulBlockedInto(New(2, 2), a, good) })
}

// TestMatMulTransParityParallel covers the transpose-variant kernels under
// a multi-worker budget: each must be bit-identical to its own serial run,
// and agree with plain MatMul through an explicit transpose. Shapes exceed
// parallelThreshold so MatMulTransB actually takes its row fan-out path.
func TestMatMulTransParityParallel(t *testing.T) {
	m, k, n := 96, 160, 144 // 96·160·144 ≈ 2.2M FLOP > 1<<21
	r := NewRNG(31)
	a := RandNormal(r, 0, 1, m, k)
	bT := RandNormal(r, 0, 1, n, k) // b stored transposed, as dense layers do
	aT := Transpose2D(a)
	b := Transpose2D(bT)

	setWorkers(t, 1)
	wantTB := MatMulTransB(a, bT)
	wantTA := MatMulTransA(aT, b)
	ref := MatMul(a, b)

	SetMatMulWorkers(4)
	gotTB := MatMulTransB(a, bT)
	if !Equal(wantTB, gotTB) {
		t.Error("MatMulTransB parallel differs from serial")
	}
	gotTA := MatMulTransA(aT, b)
	if !Equal(wantTA, gotTA) {
		t.Error("MatMulTransA under workers=4 differs from workers=1")
	}
	if !AllClose(ref, gotTB, 1e-4) {
		t.Error("MatMulTransB disagrees with MatMul beyond tolerance")
	}
	if !AllClose(ref, gotTA, 1e-4) {
		t.Error("MatMulTransA disagrees with MatMul beyond tolerance")
	}
}

// TestMatMulTransBSkipsZeros pins the transpose-B kernel's sparse behavior
// under both worker budgets: zeroed a-rows yield exactly zero output rows.
func TestMatMulTransBSkipsZeros(t *testing.T) {
	r := NewRNG(37)
	a := RandNormal(r, 0, 1, 4, 8)
	bT := RandNormal(r, 0, 1, 6, 8)
	for j := 0; j < 8; j++ {
		a.Data()[2*8+j] = 0
	}
	for _, workers := range []int{1, 4} {
		setWorkers(t, workers)
		got := MatMulTransB(a, bT)
		for j := 0; j < 6; j++ {
			if got.At2(2, j) != 0 {
				t.Fatalf("workers=%d: zero row leaked %v at col %d", workers, got.At2(2, j), j)
			}
		}
	}
}
