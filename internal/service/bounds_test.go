package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestBodiesOverCapAre413: /v1/models/swap reads its body through the same
// MaxBodyBytes cap as /v1/detect, so a 16 MiB body is refused with 413
// instead of being decoded whole.
func TestBodiesOverCapAre413(t *testing.T) {
	svc, _ := testService(t)
	h := svc.Handler()
	body := fmt.Sprintf(`{"database":%q}`, strings.Repeat("x", 16<<20))
	for _, path := range []string{"/v1/models/swap"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		want := fmt.Sprintf(`{"error":"body exceeds %d bytes"}`+"\n", MaxBodyBytes)
		if rec.Code != http.StatusRequestEntityTooLarge || rec.Body.String() != want {
			t.Errorf("%s: %d %q, want 413 %q", path, rec.Code, rec.Body.String(), want)
		}
	}
}

// TestHugeNamesGiveSmallNotFounds: a 404 quotes at most maxQuotedName bytes
// of the name it could not find, so a 1 MiB name gets a body under 1 KiB,
// and a name of maxQuotedName bytes or less is quoted whole, as before.
func TestHugeNamesGiveSmallNotFounds(t *testing.T) {
	svc, _ := testService(t)
	h := svc.Handler()
	huge := strings.Repeat("é", 1<<19) // 1 MiB, two bytes a rune
	for _, tc := range []struct {
		path, body, want string
	}{
		{"/v1/detect", fmt.Sprintf(`{"database":%q}`, huge), ""},
		{"/v1/detect", `{"database":"nope"}`, `{"error":"unknown database \"nope\""}`},
		{"/v1/detect", fmt.Sprintf(`{"database":%q}`, strings.Repeat("d", maxQuotedName)),
			fmt.Sprintf(`{"error":"unknown database \"%s\""}`, strings.Repeat("d", maxQuotedName))},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		got := rec.Body.String()
		if rec.Code != http.StatusNotFound || len(got) >= 1<<10 {
			t.Errorf("%s: %d with a %d-byte body, want 404 under 1 KiB", tc.path, rec.Code, len(got))
		}
		if tc.want != "" && got != tc.want+"\n" {
			t.Errorf("%s: %q, want %q", tc.path, got, tc.want)
		}
	}
	if got, want := quoteName(huge), fmt.Sprintf("%q… (%d bytes)", huge[:maxQuotedName], len(huge)); got != want {
		t.Errorf("quoteName cut the name to %q, want %q", got, want)
	}
	if got := quoteName("x" + huge); !strings.HasPrefix(got, fmt.Sprintf("%q…", "x"+huge[:maxQuotedName-2])) {
		t.Errorf("quoteName split a rune: %q", got)
	}
}
