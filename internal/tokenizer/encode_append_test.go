package tokenizer

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// refEncode is the reference: the original rune-at-a-time Encode.
func refEncode(tok *Tokenizer, s string) []int {
	return tok.Encode(s)
}

// encodeAppendCases are the input shapes the serving path sees; they seed
// FuzzEncodeAppend too.
var encodeAppendCases = []string{
	"",
	"phone",
	"Phone Number",
	"phone_number, credit-card!",
	"abc cba bac",
	"   padded   spaces   ",
	"zzz unknown zzz",
	"ALLCAPS MiXeD",
	"names userss",
	"tab\tnewline\nmix",
	"digits123 and ipv4",
	"Ünïcode Grüße çédille",
	"日本語のテキスト",
	"emoji 🙂 in cells",
	"a,b;c.d/e\\f(g)h[i]j{k}l",
	"quoted \"values\" and 'more'",
	"trailing punct...",
	"##s ##b literal hashes",
	string([]byte{0xff, 0xfe, 'a', 'b'}),        // invalid UTF-8: falls back to the slow path
	"mixed " + string([]byte{0x80}) + " middle", // invalid continuation byte
}

// TestEncodeAppendMatchesEncode pins the zero-alloc substring path against
// the reference tokenizer on the input shapes the serving path sees.
func TestEncodeAppendMatchesEncode(t *testing.T) {
	tok := testTok()
	for _, s := range encodeAppendCases {
		want := refEncode(tok, s)
		got := tok.EncodeAppend(nil, s)
		if !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Errorf("EncodeAppend(%q) = %v, want %v", s, got, want)
		}
	}
}

// FuzzEncodeAppend: for any prefix and any string, valid UTF-8 or not,
// EncodeAppend(prefix, s) is prefix followed by Encode(s). Each prefix byte
// becomes one id, and the prefix gets spare capacity, so an append that
// wrote over its destination or dropped part of it would show.
func FuzzEncodeAppend(f *testing.F) {
	for i, s := range encodeAppendCases {
		f.Add([]byte{byte(i), 42}[:i%3], s)
	}
	tok := testTok()
	f.Fuzz(func(t *testing.T, prefix []byte, s string) {
		dst := make([]int, len(prefix), len(prefix)+4)
		for i, b := range prefix {
			dst[i] = int(b)
		}
		want := append(append([]int{}, dst...), refEncode(tok, s)...)
		if got := tok.EncodeAppend(dst, s); !reflect.DeepEqual(normalize(got), want) {
			t.Fatalf("EncodeAppend(%v, %q) = %v, want %v", dst, s, got, want)
		}
	})
}

// TestEncodeAppendAppendsInPlace: the result must extend dst, preserving the
// existing prefix.
func TestEncodeAppendAppendsInPlace(t *testing.T) {
	tok := testTok()
	dst := []int{42, 43}
	out := tok.EncodeAppend(dst, "phone number")
	if len(out) != 2+2 || out[0] != 42 || out[1] != 43 {
		t.Fatalf("prefix not preserved: %v", out)
	}
	if !reflect.DeepEqual(out[2:], tok.Encode("phone number")) {
		t.Fatalf("suffix mismatch: %v", out[2:])
	}
}

// TestEncodeAppendMatchesEncodeProperty drives both encoders with random
// strings assembled from vocabulary fragments, separators and noise.
func TestEncodeAppendMatchesEncodeProperty(t *testing.T) {
	tok := testTok()
	frags := []string{"phone", "number", "credit", "card", "user", "name", "s",
		"a", "b", "c", "ab", "abc", "zz", "Z", "é", "日", " ", ",", "-", "_", ".", "🙂"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s string
		for n := rng.Intn(12); n > 0; n-- {
			s += frags[rng.Intn(len(frags))]
		}
		return reflect.DeepEqual(normalize(tok.EncodeAppend(nil, s)), normalize(tok.Encode(s)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeAppendAllocsWhenCapacitySuffices: with a pre-sized destination,
// lowercase input encodes with zero allocations, and mixed case costs only
// the one ToLower copy — this is what removes tokenization from the Phase-2
// allocation profile.
func TestEncodeAppendAllocsWhenCapacitySuffices(t *testing.T) {
	tok := testTok()
	dst := make([]int, 0, 64)
	if got := testing.AllocsPerRun(100, func() {
		dst = tok.EncodeAppend(dst[:0], "phone_number, credit-card users")
	}); got > 0 {
		t.Fatalf("lowercase EncodeAppend allocated %.0f times per run, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		dst = tok.EncodeAppend(dst[:0], "Phone_Number, Credit-Card Users")
	}); got > 1 {
		t.Fatalf("mixed-case EncodeAppend allocated %.0f times per run, want ≤ 1 (the ToLower copy)", got)
	}
}

// normalize maps nil to an empty slice so DeepEqual compares content only.
func normalize(ids []int) []int {
	if ids == nil {
		return []int{}
	}
	return ids
}
