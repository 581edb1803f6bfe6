package core

import "testing"

// TestExecModeOneRule pins that no mode carries a worker count: PipelinedMode
// and the deprecated AutoMode are ExecMode{Pipelined: true}, whose inference
// cap is the host's GOMAXPROCS, and the zero ExecMode is SequentialMode.
func TestExecModeOneRule(t *testing.T) {
	want := ExecMode{Pipelined: true}
	if got := PipelinedMode(); got != want {
		t.Fatalf("PipelinedMode() = %+v, want %+v", got, want)
	}
	if got := AutoMode(); got != want {
		t.Fatalf("AutoMode() = %+v, want %+v", got, want)
	}
	if SequentialMode != (ExecMode{}) {
		t.Fatalf("SequentialMode = %+v, want the zero ExecMode", SequentialMode)
	}
}
