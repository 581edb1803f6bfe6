package taste

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

// TestCacheGoldenParity is the caching-tier determinism pin: detection
// answers must be byte-identical (modulo duration_ms) whichever tier serves
// them. Against the TestGoldenDetect fixture (WikiTable 40/seed 7,
// repro-scale ADTD, 2 epochs) it checks three serving paths:
//
//  1. cold miss — first request, every tier empty, full compute;
//  2. warm latent hit — repeat request on a detector with the result tier
//     off: Phase 2 reuses cached latents, Phase 1 recomputes;
//  3. result-cache hit — repeat request with the result tier on: Phase 1's
//     probability rows come straight from the content-hash memo.
//
// All three must match each other byte for byte and agree with the golden
// file's admitted types — a cache that changes answers is a correctness
// bug, however fast.
func TestCacheGoldenParity(t *testing.T) {
	ds := WikiTableDataset(40, 7)
	model, err := NewModel(ds, ReproScale(), 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	if err := Train(model, ds, cfg); err != nil {
		t.Fatal(err)
	}
	dbServer := NewServer(NoLatency)
	dbServer.LoadTables("golden", ds.Test)

	newNode := func(resultBytes int64) (*core.Detector, *httptest.Server) {
		opts := DefaultOptions()
		opts.ResultCacheBytes = resultBytes
		det, err := NewDetector(model, opts)
		if err != nil {
			t.Fatal(err)
		}
		svc := service.New(det)
		svc.RegisterTenant("golden", dbServer)
		srv := httptest.NewServer(svc.Handler())
		t.Cleanup(srv.Close)
		return det, srv
	}

	detect := func(srv *httptest.Server) []byte {
		resp, err := http.Post(srv.URL+"/v1/detect", "application/json",
			bytes.NewReader([]byte(`{"database":"golden"}`)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		return data
	}
	canon := func(raw []byte) []byte {
		var m map[string]interface{}
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("unmarshal response: %v\n%s", err, raw)
		}
		delete(m, "duration_ms")
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Path 1 + 3: result tier on. First request is the cold reference,
	// second must be served (at least partly) from the result cache.
	detFull, full := newNode(16 << 20)
	cold := canon(detect(full))
	if hits := detFull.Results().Stats().Hits; hits != 0 {
		t.Fatalf("cold run recorded %d result hits", hits)
	}
	warmResult := canon(detect(full))
	if hits := detFull.Results().Stats().Hits; hits == 0 {
		t.Fatal("repeat request never hit the result cache")
	}
	if !bytes.Equal(cold, warmResult) {
		t.Fatalf("result-cache hit changed the response:\n cold: %s\n warm: %s", cold, warmResult)
	}

	// Path 2: result tier off — the repeat request exercises the latent
	// tier's zero-copy hit path in Phase 2.
	detLat, lat := newNode(0)
	coldLat := canon(detect(lat))
	latBase := detLat.Cache().Stats().Hits
	warmLatent := canon(detect(lat))
	if hits := detLat.Cache().Stats().Hits; hits <= latBase {
		t.Fatal("repeat request never hit the latent cache")
	}
	if !bytes.Equal(coldLat, warmLatent) {
		t.Fatalf("latent-cache hit changed the response:\n cold: %s\n warm: %s", coldLat, warmLatent)
	}
	if !bytes.Equal(cold, coldLat) {
		t.Fatalf("result-tier config changed a cold response:\n on:  %s\n off: %s", cold, coldLat)
	}

	// All three serving paths must agree with the checked-in golden types.
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	var want goldenReport
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	var resp service.DetectResponse
	if err := json.Unmarshal(warmResult, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Tables) != len(want.Tables) {
		t.Fatalf("tables = %d, golden has %d", len(resp.Tables), len(want.Tables))
	}
	for i, wt := range want.Tables {
		gt := resp.Tables[i]
		if gt.Table != wt.Table || len(gt.Columns) != len(wt.Columns) {
			t.Fatalf("table %d: %s/%d cols, golden %s/%d", i, gt.Table, len(gt.Columns), wt.Table, len(wt.Columns))
		}
		for j, wc := range wt.Columns {
			gc := gt.Columns[j]
			if gc.Column != wc.Column || gc.Phase != wc.Phase || gc.Degraded != wc.Degraded {
				t.Fatalf("%s.%s: phase=%d degraded=%v, golden phase=%d degraded=%v",
					wt.Table, wc.Column, gc.Phase, gc.Degraded, wc.Phase, wc.Degraded)
			}
			if len(gc.Types) != len(wc.Types) {
				t.Fatalf("%s.%s: types %v, golden %v", wt.Table, wc.Column, gc.Types, wc.Types)
			}
			for k := range wc.Types {
				if gc.Types[k] != wc.Types[k] {
					t.Fatalf("%s.%s: types %v, golden %v", wt.Table, wc.Column, gc.Types, wc.Types)
				}
			}
		}
	}
}
