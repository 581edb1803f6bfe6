package adtd

import "repro/internal/metafeat"

// PredictMetaQ is PredictMeta; the preference argument is ignored.
//
// Deprecated: kept only because bench/trace.go calls it; it goes in the next
// [benchmark] PR together with that call.
func (m *Model) PredictMetaQ(t *metafeat.TableInfo, includeStats bool, _ *bool) (*MetaEncoding, [][]float64) {
	return m.PredictMeta(t, includeStats)
}

// PredictContentBatchQ is PredictContentBatch; the preference argument is
// ignored.
//
// Deprecated: kept only because bench/micro.go and bench/trace.go call it; it
// goes in the next [benchmark] PR together with those calls.
func (m *Model) PredictContentBatchQ(reqs []ContentRequest, n int, _ *bool) [][][]float64 {
	return m.PredictContentBatch(reqs, n)
}
