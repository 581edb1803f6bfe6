package tensor

import "testing"

// TestWorkspaceSizeClasses: a buffer is handed out at exactly the requested
// length, at most an eighth larger underneath, and a later request of a
// nearby length — a batch that merged slightly different chunks — reuses it
// instead of allocating.
func TestWorkspaceSizeClasses(t *testing.T) {
	prev := 0
	for n := 1; n < 1<<16; n++ {
		c := wsClass(n)
		if c < n || (n > 64 && c > n+n/8+1) || c < prev || wsClass(c) != c {
			t.Fatalf("wsClass(%d) = %d (previous class %d)", n, c, prev)
		}
		prev = c
	}

	ws := NewWorkspace()
	a := ws.Take(9000)
	if len(a) != 9000 {
		t.Fatalf("length %d, want 9000", len(a))
	}
	ws.Reset()
	b := ws.Take(9100)
	if len(b) != 9100 || &b[0] != &a[0] {
		t.Fatal("a nearby length must reuse the released buffer")
	}
	if c := ws.Take(9100); &c[0] == &b[0] {
		t.Fatal("a buffer still in use was handed out twice")
	}
	ws.Reset()
	if far := ws.Take(20000); len(far) != 20000 || &far[0] == &a[0] {
		t.Fatal("a length beyond the class must get its own buffer")
	}
}
