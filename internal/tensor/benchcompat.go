package tensor

// SetQuantize does nothing: the int8 inference path it toggled is gone.
//
// Deprecated: kept only because bench/env.go (applyRuntime) calls it with
// false; it goes in the next [benchmark] PR together with that call.
func SetQuantize(bool) {}
