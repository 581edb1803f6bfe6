//go:build amd64

package tensor

// Assembly kernels (quant_amd64.s). The pointers address at least
// n (x) and 3·stride+n (w) elements; n is a positive multiple of quantLane.

//go:noescape
func dotQuadAsm(x *int8, w *int8, stride, n int, sums *[4]int32)

//go:noescape
func dotQuadWAsm(x *int16, w *int8, stride, n int, sums *[4]int32)

//go:noescape
func expGridAsm(s *float64, n int, maxv float64, pq *int16) int64

func dotQuad(x, w []int8, stride, n int, sums *[4]int32) {
	if haveAVX2 {
		dotQuadAsm(&x[0], &w[0], stride, n, sums)
		return
	}
	dotQuadGeneric(x, w, stride, n, sums)
}

func dotQuadW(x []int16, w []int8, stride, n int, sums *[4]int32) {
	if haveAVX2 {
		dotQuadWAsm(&x[0], &w[0], stride, n, sums)
		return
	}
	dotQuadWGeneric(x, w, stride, n, sums)
}

func expGrid(s []float64, maxv float64, pq []int16) int {
	if !haveAVX2 || len(s) < 4 {
		return expGridGeneric(s, maxv, pq)
	}
	n4 := len(s) &^ 3
	sum := int(expGridAsm(&s[0], n4, maxv, &pq[0]))
	if n4 < len(s) {
		sum += expGridGeneric(s[n4:], maxv, pq[n4:])
	}
	return sum
}
