package tensor

import "runtime"

// SetQuantize does nothing: the int8 inference path it toggled is gone.
//
// Deprecated: kept only because bench/env.go (applyRuntime) calls it with
// false; it goes in the next [benchmark] PR together with that call.
func SetQuantize(bool) {}

// SetParallelism does nothing: the sharded kernels borrow free cores up to
// GOMAXPROCS and have no setting of their own.
//
// Deprecated: kept only because bench/env.go (applyRuntime) calls it; it
// goes in the next [benchmark] PR together with that call.
func SetParallelism(int) {}

// DefaultParallelism returns GOMAXPROCS, the widest a kernel shards.
//
// Deprecated: kept only as SetParallelism's argument in bench/env.go; it
// goes with that call.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }
