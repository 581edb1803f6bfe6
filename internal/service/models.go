// Model registry integration: zero-downtime hot-swap and per-request model
// version overrides. With a registry attached the service closes the
// train → publish → serve loop:
//
//	GET  /v1/models          registry contents + the serving model
//	POST /v1/models/swap     {"version": N}  hot-swap to a published version
//	POST /v1/models/publish  {}              publish the serving weights
//
// A swap materializes the requested version from the registry's
// content-addressed pages into a fresh sibling model, then atomically
// replaces the detector's serving pointer. In-flight requests finish on the
// model they captured at admission; new requests see the new weights
// immediately. No cache is flushed — latent and result keys embed the
// process-unique weight generation, so the two models' entries cannot
// alias, and entries for the returning version are still valid if it swaps
// back. A failed materialization (missing version, corrupt page, shape
// mismatch) leaves the serving model untouched: Model.Load validates the
// whole checkpoint before installing anything.
package service

import (
	"bytes"
	"context"
	"net/http"

	"repro/internal/adtd"
	"repro/internal/registry"
)

// maxMaterializedVersions bounds the cache of models materialized for
// per-request version overrides; the least recently materialized is dropped.
const maxMaterializedVersions = 8

// AttachRegistry connects a model registry. name is the registry name the
// serving model publishes under and version the serving model's version (0
// when the serving weights were not loaded from the registry). Call before
// serving traffic.
func (s *Service) AttachRegistry(reg *registry.Registry, name string, version int) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	s.registry = reg
	s.modelName = name
	s.servingVersion.Store(int64(version))
	if version > 0 {
		s.verCache = map[int]*adtd.Model{version: s.detector.Model()}
		s.verOrder = []int{version}
	}
	servingVersionGauge.Set(int64(version))
}

// Registry returns the attached registry, or nil.
func (s *Service) Registry() *registry.Registry {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	return s.registry
}

// ServingVersion returns the registry version of the serving model (0 when
// unknown or no registry is attached).
func (s *Service) ServingVersion() int { return int(s.servingVersion.Load()) }

// cachedVersion returns a previously materialized model for version, if any.
func (s *Service) cachedVersion(version int) *adtd.Model {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	return s.verCache[version]
}

// cacheVersion remembers a materialized model, evicting the oldest entry
// past the cap (never the serving version's).
func (s *Service) cacheVersion(version int, m *adtd.Model) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if s.verCache == nil {
		s.verCache = make(map[int]*adtd.Model)
	}
	if _, ok := s.verCache[version]; !ok {
		s.verOrder = append(s.verOrder, version)
	}
	s.verCache[version] = m
	serving := int(s.servingVersion.Load())
	for len(s.verOrder) > maxMaterializedVersions {
		evict, rest := s.verOrder[0], s.verOrder[1:]
		if evict == serving && len(rest) > 0 {
			// Keep the serving version cached; rotate it to the back.
			s.verOrder = append(rest, evict)
			continue
		}
		s.verOrder = rest
		delete(s.verCache, evict)
	}
}

// versionOf returns the registry version a model object was materialized or
// published as, or 0 when it has none (no registry, never published, or its
// weights drifted since). Deriving the version from the model pointer — not
// from a separate serving-version read — is what keeps a detect response's
// model_version label coherent with the weights that computed it during a
// concurrent hot-swap.
func (s *Service) versionOf(m *adtd.Model) int {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	for v, cm := range s.verCache {
		if cm == m {
			return v
		}
	}
	return 0
}

// noteServingDrift records that the serving weights changed in place (online
// feedback): they no longer match any published version. The serving version
// resets to 0 and the stale cache entry is dropped, so a later swap back to
// that version rematerializes pristine weights from the registry instead of
// serving the drifted object.
func (s *Service) noteServingDrift() {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if s.registry == nil {
		return
	}
	old := int(s.servingVersion.Swap(0))
	if old > 0 {
		delete(s.verCache, old)
		for i, v := range s.verOrder {
			if v == old {
				s.verOrder = append(s.verOrder[:i], s.verOrder[i+1:]...)
				break
			}
		}
	}
	servingVersionGauge.Set(0)
}

// modelForVersion materializes (or returns the cached) model for a
// published version. The checkpoint is reassembled from content-verified
// pages and loaded through Model.Load's all-or-nothing path into a fresh
// sibling of the serving model.
func (s *Service) modelForVersion(version int) (*adtd.Model, *APIError) {
	s.regMu.Lock()
	reg, name := s.registry, s.modelName
	s.regMu.Unlock()
	if reg == nil {
		return nil, apiErrorf(http.StatusBadRequest, "no model registry attached")
	}
	if m := s.cachedVersion(version); m != nil {
		return m, nil
	}
	ckpt, err := reg.Checkpoint(name, version)
	if err != nil {
		return nil, apiErrorf(http.StatusNotFound, "model %s@%d: %v", name, version, err)
	}
	m, err := s.detector.Model().Sibling()
	if err != nil {
		return nil, apiErrorf(http.StatusInternalServerError, "materialize %s@%d: %v", name, version, err)
	}
	if err := m.Load(bytes.NewReader(ckpt)); err != nil {
		return nil, apiErrorf(http.StatusInternalServerError, "load %s@%d: %v", name, version, err)
	}
	m.SetEval()
	s.cacheVersion(version, m)
	return m, nil
}

// ModelBlock is the /v1/stats (and fleet-scraped) view of the serving
// model: which registry version is live, its weight generation, and how
// many hot-swaps the replica has performed.
type ModelBlock struct {
	Name       string          `json:"name,omitempty"`
	Version    int             `json:"version,omitempty"`
	Generation uint64          `json:"generation"`
	Swaps      int64           `json:"swaps"`
	Registry   *registry.Stats `json:"registry,omitempty"`
}

// ModelStats snapshots the serving-model block.
func (s *Service) ModelStats() ModelBlock {
	mb := ModelBlock{
		Generation: s.detector.Model().Generation(),
		Version:    int(s.servingVersion.Load()),
		Swaps:      s.swaps.Load(),
	}
	s.regMu.Lock()
	reg, name := s.registry, s.modelName
	s.regMu.Unlock()
	if reg != nil {
		mb.Name = name
		st := reg.Stats()
		mb.Registry = &st
	}
	return mb
}

// handleModels serves GET /v1/models: registry contents plus the serving
// model block.
func (s *Service) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	reg := s.Registry()
	if reg == nil {
		writeError(w, http.StatusNotFound, "no model registry attached")
		return
	}
	versions := make(map[string][]int)
	for _, name := range reg.Models() {
		versions[name] = reg.Versions(name)
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"models":  versions,
		"serving": s.ModelStats(),
	})
}

// SwapRequest is the /v1/models/swap payload. Version 0 means "latest".
type SwapRequest struct {
	Version int `json:"version"`
}

// SwapResponse reports a completed hot-swap.
type SwapResponse struct {
	Name          string `json:"name"`
	Version       int    `json:"version"`
	OldVersion    int    `json:"old_version"`
	OldGeneration uint64 `json:"old_generation"`
	Generation    uint64 `json:"generation"`
}

// Swap hot-swaps the serving model to the given published version (0 =
// latest). Shared by the HTTP handler and in-process callers (fleet
// harness, tests).
func (s *Service) Swap(ctx context.Context, version int) (*SwapResponse, *APIError) {
	s.regMu.Lock()
	reg, name := s.registry, s.modelName
	s.regMu.Unlock()
	if reg == nil {
		return nil, apiErrorf(http.StatusBadRequest, "no model registry attached")
	}
	if version == 0 {
		latest, ok := reg.Latest(name)
		if !ok {
			return nil, apiErrorf(http.StatusNotFound, "model %q has no published versions", name)
		}
		version = latest
	}
	m, apiErr := s.modelForVersion(version)
	if apiErr != nil {
		modelSwapErrorsTotal.Inc()
		return nil, apiErr
	}
	old := s.detector.SwapModel(m)
	oldVersion := int(s.servingVersion.Swap(int64(version)))
	s.swaps.Add(1)
	modelSwapsTotal.Inc()
	servingVersionGauge.Set(int64(version))
	return &SwapResponse{
		Name:          name,
		Version:       version,
		OldVersion:    oldVersion,
		OldGeneration: old.Generation(),
		Generation:    m.Generation(),
	}, nil
}

func (s *Service) handleModelSwap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req SwapRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, apiErr := s.Swap(r.Context(), req.Version)
	if apiErr != nil {
		writeError(w, apiErr.Status, "%s", apiErr.Msg)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleModelPublish serves POST /v1/models/publish: the serving model's
// current weights become the next registry version — the online-feedback
// path to a durable, swappable variant. The publish dedups against earlier
// versions page by page, so a feedback-adapted model (classifier heads
// changed, encoder shared) stores only its changed pages.
func (s *Service) handleModelPublish(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	s.regMu.Lock()
	reg, name := s.registry, s.modelName
	s.regMu.Unlock()
	if reg == nil {
		writeError(w, http.StatusBadRequest, "no model registry attached")
		return
	}
	m := s.detector.Model()
	res, err := reg.Publish(name, m.Params())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "publish: %v", err)
		return
	}
	// The serving weights now have a registry identity: record it so stats
	// and responses report the published version, and cache the model so a
	// later swap back to this version is free.
	s.servingVersion.Store(int64(res.Version))
	servingVersionGauge.Set(int64(res.Version))
	s.cacheVersion(res.Version, m)
	writeJSON(w, http.StatusOK, res)
}
