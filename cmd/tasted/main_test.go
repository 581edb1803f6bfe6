package main

import (
	"strings"
	"testing"
)

// TestCheckBootFlags: every boot-flag combination that names no model, or
// that would drop -model-version on the floor, is refused before anything
// loads; every combination that serves what it says boots.
func TestCheckBootFlags(t *testing.T) {
	for _, tc := range []struct {
		name       string
		checkpoint string
		registry   string
		version    int
		want       string // substring of the error; empty means accepted
	}{
		{name: "checkpoint", checkpoint: "x"},
		{name: "registry latest", registry: "d"},
		{name: "registry version", registry: "d", version: 3},
		{name: "checkpoint with registry", checkpoint: "x", registry: "d"},
		{name: "no model", want: "need -checkpoint or -registry"},
		{name: "version alone", version: 3, want: "need -checkpoint"},
		{name: "version with checkpoint", checkpoint: "x", registry: "d", version: 3, want: "conflicts with -checkpoint"},
		{name: "version with checkpoint, no registry", checkpoint: "x", version: 3, want: "requires -registry"},
		{name: "negative version", registry: "d", version: -1, want: "must be ≥ 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkBootFlags(tc.checkpoint, tc.registry, tc.version)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted, want an error containing %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("err = %v, want it to contain %q", err, tc.want)
			}
		})
	}
}
