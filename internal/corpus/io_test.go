package corpus

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestJSONLRoundTrip(t *testing.T) {
	ds := Generate(DefaultRegistry(), WikiTableProfile(20), 1)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, ds.Test); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ds.Test) {
		t.Fatalf("read %d tables, want %d", len(got), len(ds.Test))
	}
	for i, tb := range got {
		src := ds.Test[i]
		if tb.Name != src.Name || tb.Comment != src.Comment {
			t.Fatalf("table %d metadata mismatch", i)
		}
		for j, c := range tb.Columns {
			sc := src.Columns[j]
			if c.Name != sc.Name || !reflect.DeepEqual(c.Labels, sc.Labels) || !reflect.DeepEqual(c.Values, sc.Values) {
				t.Fatalf("column %d.%d mismatch", i, j)
			}
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{broken")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestReadJSONLValidates(t *testing.T) {
	cases := []string{
		`{"Name":"","Columns":[]}`,                                                             // missing name
		`{"Name":"t","Columns":[{"Name":""}]}`,                                                 // unnamed column
		`{"Name":"t","Columns":[{"Name":"a"},{"Name":"a"}]}`,                                   // duplicate
		`{"Name":"t","Columns":[{"Name":"a","Values":["x"]},{"Name":"b","Values":["x","y"]}]}`, // ragged
	}
	for i, c := range cases {
		if _, err := ReadJSONL(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d should fail validation", i)
		}
	}
}

func TestReadJSONLEmpty(t *testing.T) {
	got, err := ReadJSONL(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty input: %v, %d tables", err, len(got))
	}
}
