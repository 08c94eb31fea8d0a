package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// matmulWorkers is the goroutine budget for large products; 0 resolves to
// GOMAXPROCS (capped at 8). Output rows are disjoint and each row is
// computed wholly within one goroutine, so results are bit-identical to
// the serial kernel regardless of the worker count.
var matmulWorkers int32

// SetMatMulWorkers sets the goroutine budget for large matrix products.
// n ≤ 0 restores the default (GOMAXPROCS, capped at 8); n == 1 forces the
// serial kernel. Safe to call concurrently.
func SetMatMulWorkers(n int) {
	if n < 0 {
		n = 0
	}
	atomic.StoreInt32(&matmulWorkers, int32(n))
}

func resolveWorkers() int {
	n := int(atomic.LoadInt32(&matmulWorkers))
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
		if n > 8 {
			n = 8
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// parallelThreshold is the m·k·n FLOP volume above which MatMul fans out.
const parallelThreshold = 1 << 21

// ShapeError is the panic value raised by the matmul-family shape
// validation. It implements error, so a recover() site can unwrap the
// operation and the offending geometry instead of string-matching.
type ShapeError struct {
	// Op names the kernel whose operands were malformed, e.g. "MatMulInto".
	Op string
	// Detail describes the mismatch in terms of the operand shapes.
	Detail string
}

func (e *ShapeError) Error() string { return "tensor: " + e.Op + ": " + e.Detail }

// checkMatMulShapes validates the operand geometry shared by the
// matmul-family kernels (MatMul, MatMulInto, MatMulAccumulate,
// MatMulTransA, MatMulTransB) and returns the output dimensions (m, n).
// aTrans/bTrans select which operand axes contract; a non-nil out must
// already have shape (m×n). On mismatch it panics with a *ShapeError.
//
// This is the package's allowlisted nopanic validation helper: malformed
// shapes are programmer errors on construction paths, never data-dependent
// runtime conditions, so the documented API contract is to panic — from
// exactly this one site.
func checkMatMulShapes(op string, a, b, out *Tensor, aTrans, bTrans bool) (m, n int) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(&ShapeError{Op: op, Detail: fmt.Sprintf("needs 2-D operands, got %v and %v", a.shape, b.shape)})
	}
	aInner, bInner := a.shape[1], b.shape[0]
	m, n = a.shape[0], b.shape[1]
	if aTrans {
		aInner, m = a.shape[0], a.shape[1]
	}
	if bTrans {
		bInner, n = b.shape[1], b.shape[0]
	}
	if aInner != bInner {
		panic(&ShapeError{Op: op, Detail: fmt.Sprintf("inner dimension mismatch %v · %v (contracting %d vs %d)",
			a.shape, b.shape, aInner, bInner)})
	}
	if out != nil && (len(out.shape) != 2 || out.shape[0] != m || out.shape[1] != n) {
		panic(&ShapeError{Op: op, Detail: fmt.Sprintf("out shape %v, want [%d %d]", out.shape, m, n)})
	}
	return m, n
}

// MatMul returns the matrix product a·b of two 2-D tensors, (m×k)·(k×n) →
// (m×n). The kernel iterates in ikj order so the innermost loop streams both
// the b row and the output row, which is the cache-friendly layout for
// row-major storage.
func MatMul(a, b *Tensor) *Tensor {
	m, n := checkMatMulShapes("MatMul", a, b, nil, false, false)
	out := New(m, n)
	matMulInto(out, a, b, false)
	return out
}

// MatMulInto computes out = a·b, reusing out's storage. out must already
// have shape (m×n).
func MatMulInto(out, a, b *Tensor) {
	checkMatMulShapes("MatMulInto", a, b, out, false, false)
	matMulInto(out, a, b, false)
}

// MatMulAccumulate computes out += a·b.
func MatMulAccumulate(out, a, b *Tensor) {
	checkMatMulShapes("MatMulAccumulate", a, b, out, false, false)
	matMulInto(out, a, b, true)
}

func matMulInto(out, a, b *Tensor, accumulate bool) {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	workers := resolveWorkers()
	if workers > 1 && int64(m)*int64(k)*int64(n) >= parallelThreshold && m > 1 {
		if workers > m {
			workers = m
		}
		var wg sync.WaitGroup
		chunk := (m + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > m {
				hi = m
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				matMulRows(out, a, b, accumulate, lo, hi)
			}(lo, hi)
		}
		wg.Wait()
		return
	}
	matMulRows(out, a, b, accumulate, 0, m)
}

// matMulRows computes output rows [lo, hi) of out = (out +) a·b.
func matMulRows(out, a, b *Tensor, accumulate bool, lo, hi int) {
	k, n := a.shape[1], b.shape[1]
	ad, bd, od := a.data, b.data, out.data
	if !accumulate {
		for i := lo * n; i < hi*n; i++ {
			od[i] = 0
		}
	}
	for i := lo; i < hi; i++ {
		arow := ad[i*k : (i+1)*k]
		orow := od[i*n : (i+1)*n]
		for p, av := range arow {
			if av == 0 { //lint:allow(floateq) sparse skip: pruned weights are exact zeros
				// Sparse-friendly skip: pruned weights are exact zeros, so
				// unstructured sparsity translates into skipped work here.
				continue
			}
			brow := bd[p*n : (p+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulTransB returns a·bᵀ for 2-D a (m×k) and b (n×k) → (m×n). This is the
// natural kernel for dense-layer forward passes where weights are stored as
// (out×in). Large products fan rows out across the SetMatMulWorkers budget;
// each output row is computed wholly within one goroutine, so results stay
// bit-identical to the serial kernel, and a row's values do not depend on
// how many other rows share the product.
func MatMulTransB(a, b *Tensor) *Tensor {
	m, n := checkMatMulShapes("MatMulTransB", a, b, nil, false, true)
	out := New(m, n)
	matMulTransBInto(out, a, b)
	return out
}

// MatMulTransBInto computes out = a·bᵀ, reusing out's storage. out must
// already have shape (m×n); every element is overwritten.
func MatMulTransBInto(out, a, b *Tensor) {
	checkMatMulShapes("MatMulTransBInto", a, b, out, false, true)
	matMulTransBInto(out, a, b)
}

func matMulTransBInto(out, a, b *Tensor) {
	m, k, n := a.shape[0], a.shape[1], out.shape[1]
	workers := resolveWorkers()
	if workers > 1 && int64(m)*int64(k)*int64(n) >= parallelThreshold && m > 1 {
		if workers > m {
			workers = m
		}
		var wg sync.WaitGroup
		chunk := (m + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > m {
				hi = m
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				matMulTransBRows(out, a, b, lo, hi)
			}(lo, hi)
		}
		wg.Wait()
		return
	}
	matMulTransBRows(out, a, b, 0, m)
}

// matMulTransBRows computes output rows [lo, hi) of out = a·bᵀ.
func matMulTransBRows(out, a, b *Tensor, lo, hi int) {
	k, n := a.shape[1], out.shape[1]
	ad, bd, od := a.data, b.data, out.data
	for i := lo; i < hi; i++ {
		arow := ad[i*k : (i+1)*k]
		orow := od[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := bd[j*k : (j+1)*k]
			var s float32
			for p, av := range arow {
				s += av * brow[p]
			}
			orow[j] = s
		}
	}
}

// MatMulTransA returns aᵀ·b for 2-D a (k×m) and b (k×n) → (m×n). This is the
// natural kernel for dense-layer weight gradients.
func MatMulTransA(a, b *Tensor) *Tensor {
	m, n := checkMatMulShapes("MatMulTransA", a, b, nil, true, false)
	k := a.shape[0]
	out := New(m, n)
	ad, bd, od := a.data, b.data, out.data
	for p := 0; p < k; p++ {
		arow := ad[p*m : (p+1)*m]
		brow := bd[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 { //lint:allow(floateq) sparse skip: pruned weights are exact zeros
				continue
			}
			orow := od[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatVec returns the matrix-vector product a·x of a 2-D tensor (m×k) and a
// 1-D tensor (k) → (m).
func MatVec(a, x *Tensor) *Tensor {
	if len(a.shape) != 2 || len(x.shape) != 1 {
		failf("tensor: MatVec needs 2-D and 1-D operands, got %v and %v", a.shape, x.shape)
	}
	if a.shape[1] != x.shape[0] {
		failf("tensor: MatVec dimension mismatch %v · %v", a.shape, x.shape)
	}
	m, k := a.shape[0], a.shape[1]
	out := New(m)
	for i := 0; i < m; i++ {
		row := a.data[i*k : (i+1)*k]
		var s float32
		for p, v := range row {
			s += v * x.data[p]
		}
		out.data[i] = s
	}
	return out
}

// Outer returns the outer product x⊗y of two 1-D tensors (m)·(n) → (m×n).
func Outer(x, y *Tensor) *Tensor {
	if len(x.shape) != 1 || len(y.shape) != 1 {
		failf("tensor: Outer needs 1-D operands, got %v and %v", x.shape, y.shape)
	}
	m, n := x.shape[0], y.shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		xv := x.data[i]
		if xv == 0 { //lint:allow(floateq) sparse skip: pruned weights are exact zeros
			continue
		}
		row := out.data[i*n : (i+1)*n]
		for j, yv := range y.data {
			row[j] = xv * yv
		}
	}
	return out
}

// Dot returns the inner product of two equally sized tensors, flattening
// their shapes.
func Dot(a, b *Tensor) float32 {
	if len(a.data) != len(b.data) {
		failf("tensor: Dot length mismatch %d vs %d", len(a.data), len(b.data))
	}
	var s float32
	for i, v := range a.data {
		s += v * b.data[i]
	}
	return s
}
