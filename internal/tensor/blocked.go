package tensor

import "sync"

// Blocked (tiled) matmul geometry. The output is processed in tiles of
// blockRows × blockCols: row blocks are the unit of goroutine parallelism
// and column tiles keep the streamed b rows and the output row segment
// resident in cache while the contraction sweeps p. The contraction loop
// itself is never tiled — each output element accumulates over p in
// exactly the serial kernel's order, so MatMulBlocked is bit-identical to
// MatMul for every input, not merely approximately equal, whatever the
// worker budget. That guarantee is what lets a per-level reference
// computed on one view of a checkpoint (the benchmark oracle's) be
// compared bit-for-bit with what any instance serves.
const (
	blockRows = 64
	blockCols = 256
)

// MatMulBlocked returns a·b computed by the blocked/tiled kernel,
// (m×k)·(k×n) → (m×n). Results are bit-identical to MatMul; the blocked
// traversal only changes the order in which *independent* output elements
// are produced, never the per-element float32 summation order. Row blocks
// fan out across the SetMatMulWorkers goroutine budget above the same
// FLOP-volume threshold as MatMul.
func MatMulBlocked(a, b *Tensor) *Tensor {
	m, n := checkMatMulShapes("MatMulBlocked", a, b, nil, false, false)
	out := New(m, n)
	matMulBlockedInto(out, a, b)
	return out
}

// MatMulBlockedInto computes out = a·b with the blocked kernel, reusing
// out's storage. out must already have shape (m×n).
func MatMulBlockedInto(out, a, b *Tensor) {
	checkMatMulShapes("MatMulBlockedInto", a, b, out, false, false)
	matMulBlockedInto(out, a, b)
}

func matMulBlockedInto(out, a, b *Tensor) {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	workers := resolveWorkers()
	if workers > 1 && int64(m)*int64(k)*int64(n) >= parallelThreshold && m > blockRows {
		blocks := (m + blockRows - 1) / blockRows
		if workers > blocks {
			workers = blocks
		}
		var wg sync.WaitGroup
		chunk := (blocks + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk * blockRows
			hi := lo + chunk*blockRows
			if hi > m {
				hi = m
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				matMulBlockedRows(out, a, b, lo, hi)
			}(lo, hi)
		}
		wg.Wait()
		return
	}
	matMulBlockedRows(out, a, b, 0, m)
}

// matMulBlockedRows computes output rows [lo, hi) of out = a·b, column
// tile by column tile. Within a tile each output row segment is zeroed and
// then accumulated over the full contraction axis in ascending p order
// with the sparse zero-skip — the exact element-wise computation the
// serial kernel performs.
func matMulBlockedRows(out, a, b *Tensor, lo, hi int) {
	k, n := a.shape[1], b.shape[1]
	ad, bd, od := a.data, b.data, out.data
	for jb := 0; jb < n; jb += blockCols {
		je := jb + blockCols
		if je > n {
			je = n
		}
		for ib := lo; ib < hi; ib += blockRows {
			ie := ib + blockRows
			if ie > hi {
				ie = hi
			}
			for i := ib; i < ie; i++ {
				arow := ad[i*k : (i+1)*k]
				orow := od[i*n+jb : i*n+je]
				for x := range orow {
					orow[x] = 0
				}
				for p, av := range arow {
					if av == 0 { //lint:allow(floateq) sparse skip: pruned weights are exact zeros
						continue
					}
					brow := bd[p*n+jb : p*n+je]
					for j, bv := range brow {
						orow[j] += av * bv
					}
				}
			}
		}
	}
}
