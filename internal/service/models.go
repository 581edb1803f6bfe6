// Model registry integration: zero-downtime hot-swap and per-request model
// version overrides. With a registry attached the service closes the
// train → publish → serve loop:
//
//	GET  /v1/models          registry contents + the serving model
//	POST /v1/models/swap     {"version": N}  hot-swap to a published version
//	POST /v1/models/publish  {}              publish the serving weights
//
// A registry version becomes a model in one place, ReadVersion: the model
// the version's verified model file describes (adtd.ReadModel), with the
// configuration, tokenizer and type space the file carries. A swap, a
// per-request model_version pin (through modelForVersion's cache) and
// tasted's boot all go through it. A swap then atomically replaces the
// detector's serving pointer. In-flight requests finish on the model they
// captured at admission; new requests see the new weights immediately. No cache is flushed — latent and result keys
// embed the process-unique weight generation, so the two models' entries
// cannot alias, and entries for the returning version are still valid if it
// swaps back. A failed materialization (missing version, a file that fails
// its hash, a bare weights stream, weights of another shape than the
// file's header says) leaves the serving model untouched: nothing is
// installed until ReadModel has read the whole file. The registry
// is read afresh on every call, so a version another process publishes
// (tastetrain -publish) is listed, and swappable, as soon as it exists.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"net/http"
	"slices"

	"repro/internal/adtd"
	"repro/internal/registry"
)

// maxMaterializedVersions bounds the cache of models materialized for
// per-request version overrides; the least recently materialized is dropped.
const maxMaterializedVersions = 8

// AttachRegistry connects a model registry, the serving model's version
// history. servingVersion is the published version the serving model was
// read from (ReadVersion), or 0 when it is none. Call before serving
// traffic.
func (s *Service) AttachRegistry(reg *registry.Registry, servingVersion int) {
	s.regMu.Lock()
	s.registry = reg
	s.regMu.Unlock()
	if servingVersion > 0 {
		s.cacheVersion(servingVersion, s.detector.Model())
	}
}

// ReadVersion reads a published version of reg as a model in eval mode:
// the one way a registry version becomes a model. The model is what the
// version's verified file describes, read by adtd.ReadModel, so it answers
// with its own configuration, tokenizer and type space. An unpublished
// version's error wraps fs.ErrNotExist.
func ReadVersion(reg *registry.Registry, version int) (*adtd.Model, error) {
	raw, err := reg.Checkpoint(version)
	if err != nil {
		return nil, err
	}
	m, err := adtd.ReadModel(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("version %d: %w", version, err)
	}
	m.SetEval()
	return m, nil
}

// attachedRegistry returns the attached registry (nil when none).
func (s *Service) attachedRegistry() *registry.Registry {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	return s.registry
}

// ServingVersion returns the registry version of the serving model (0 when
// unknown or no registry is attached).
func (s *Service) ServingVersion() int { return s.versionOf(s.detector.Model()) }

// cacheVersion caches m as version's one object, unless a concurrent
// materialization cached one first, and returns the cached object. An object
// published again moves to its new version. Past the cap the oldest entry is
// evicted, never the serving model's.
func (s *Service) cacheVersion(version int, m *adtd.Model) *adtd.Model {
	serving := s.detector.Model()
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if cm := s.verCache[version]; cm != nil {
		return cm
	}
	if s.verCache == nil {
		s.verCache = make(map[int]*adtd.Model)
	}
	maps.DeleteFunc(s.verCache, func(v int, cm *adtd.Model) bool { return cm == m })
	s.verCache[version] = m
	s.verOrder = append(slices.DeleteFunc(s.verOrder, func(v int) bool { return s.verCache[v] == nil }), version)
	for len(s.verOrder) > maxMaterializedVersions {
		evict, rest := s.verOrder[0], s.verOrder[1:]
		if s.verCache[evict] == serving && len(rest) > 0 {
			// Keep the serving version cached; rotate it to the back.
			s.verOrder = append(rest, evict)
			continue
		}
		s.verOrder = rest
		delete(s.verCache, evict)
	}
	return m
}

// versionOf returns the registry version a model object was materialized or
// published as, or 0 when it has none. Deriving the version from the model
// pointer, not from a separate read, keeps a detect response's model_version
// coherent with the weights that computed it during a concurrent hot-swap.
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

// modelForVersion returns the cached model of a published version, or
// reads it (ReadVersion) and caches it. An unpublished version is 404; a
// version file that cannot be read, fails its hash or is refused by the
// reader is 500.
func (s *Service) modelForVersion(version int) (*adtd.Model, *APIError) {
	s.regMu.Lock()
	reg, cached := s.registry, s.verCache[version]
	s.regMu.Unlock()
	if reg == nil {
		return nil, apiErrorf(http.StatusBadRequest, "no model registry attached")
	}
	if cached != nil {
		return cached, nil
	}
	m, err := ReadVersion(reg, version)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, apiErrorf(http.StatusNotFound, "model version %d: %v", version, err)
	}
	if err != nil {
		return nil, apiErrorf(http.StatusInternalServerError, "%v", err)
	}
	return s.cacheVersion(version, m), nil
}

// ModelBlock is the /v1/stats (and fleet-scraped) view of the serving
// model: which registry version is live, its weight generation, and how
// many hot-swaps the replica has performed.
type ModelBlock struct {
	Version    int             `json:"version,omitempty"`
	Generation uint64          `json:"generation"`
	Swaps      int64           `json:"swaps"`
	Registry   *registry.Stats `json:"registry,omitempty"`
}

// ModelStats snapshots the serving-model block.
func (s *Service) ModelStats() ModelBlock {
	m := s.detector.Model()
	mb := ModelBlock{
		Generation: m.Generation(),
		Version:    s.versionOf(m),
		Swaps:      s.swaps.Load(),
	}
	if reg := s.attachedRegistry(); reg != nil {
		// A registry that cannot be listed leaves the block out.
		if st, err := reg.Stats(); err == nil {
			mb.Registry = &st
		}
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
	reg := s.attachedRegistry()
	if reg == nil {
		writeError(w, http.StatusNotFound, "no model registry attached")
		return
	}
	versions, err := reg.Versions()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"versions": versions,
		"serving":  s.ModelStats(),
	})
}

// SwapRequest is the /v1/models/swap payload. Version 0 means "latest".
type SwapRequest struct {
	Version int `json:"version"`
}

// SwapResponse reports a completed hot-swap.
type SwapResponse struct {
	Version       int    `json:"version"`
	OldVersion    int    `json:"old_version"`
	OldGeneration uint64 `json:"old_generation"`
	Generation    uint64 `json:"generation"`
}

// Swap hot-swaps the serving model to the given published version (0 =
// latest). Shared by the HTTP handler and in-process callers (fleet
// harness, tests).
func (s *Service) Swap(ctx context.Context, version int) (*SwapResponse, *APIError) {
	resp, apiErr := s.install(version)
	if apiErr != nil {
		modelSwapErrorsTotal.Inc()
		return nil, apiErr
	}
	s.swaps.Add(1)
	modelSwapsTotal.Inc()
	return resp, nil
}

// install materializes a published version (0 = latest) and makes it the
// serving model.
func (s *Service) install(version int) (*SwapResponse, *APIError) {
	reg := s.attachedRegistry()
	if reg == nil {
		return nil, apiErrorf(http.StatusBadRequest, "no model registry attached")
	}
	if version == 0 {
		latest, err := reg.Latest()
		if err != nil {
			return nil, apiErrorf(http.StatusInternalServerError, "%v", err)
		}
		if latest == 0 {
			return nil, apiErrorf(http.StatusNotFound, "the registry has no published versions")
		}
		version = latest
	}
	m, apiErr := s.modelForVersion(version)
	if apiErr != nil {
		return nil, apiErr
	}
	old := s.detector.SwapModel(m)
	return &SwapResponse{
		Version:       version,
		OldVersion:    s.versionOf(old),
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
// file (its header and current weights) becomes the next registry
// version, durable and swappable. It claims its version as any other
// publisher does, so a tastetrain -publish into the same directory at the
// same moment takes another.
func (s *Service) handleModelPublish(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	reg := s.attachedRegistry()
	if reg == nil {
		writeError(w, http.StatusBadRequest, "no model registry attached")
		return
	}
	m := s.detector.Model()
	res, err := reg.Publish(m.WriteModel)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "publish: %v", err)
		return
	}
	// The published weights now have a registry identity: cache the model
	// under it, so stats and responses report the version and a later swap
	// back to it is free.
	s.cacheVersion(res.Version, m)
	writeJSON(w, http.StatusOK, res)
}
