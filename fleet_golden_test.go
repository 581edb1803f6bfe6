package taste

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/fleet"
	"repro/internal/service"
)

// TestFleetGoldenParity is the fleet-level determinism pin: routing
// detection through a coordinator over three replicas must not perturb
// results. Two claims are checked against the same fixture TestGoldenDetect
// uses (WikiTable 40/seed 7, repro-scale ADTD, 2 epochs, sequential):
//
//  1. A whole-database request answered through the coordinator is
//     byte-identical to the single-node service's answer (after zeroing
//     duration_ms, the one timing field).
//  2. Per-table requests — which spread across replicas at database/table
//     granularity — reassemble to exactly the golden file's per-column
//     types, phases, and degradation flags.
func TestFleetGoldenParity(t *testing.T) {
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

	// Every node — single-node reference and the three fleet replicas —
	// shares the trained weights but owns its detector and latent cache,
	// exactly like separate tasted processes restored from one checkpoint.
	newNode := func() *httptest.Server {
		det, err := NewDetector(model, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		svc := service.New(det)
		svc.RegisterTenant("golden", dbServer)
		srv := httptest.NewServer(svc.Handler())
		t.Cleanup(srv.Close)
		return srv
	}

	single := newNode()
	replicas := make(map[string]string, 3)
	for i := 0; i < 3; i++ {
		replicas[fmt.Sprintf("replica%02d", i)] = newNode().URL
	}
	coord := fleet.NewCoordinator(replicas, fleet.Config{
		Pool: fleet.PoolConfig{ProbeInterval: -1},
	})
	coord.Start()
	defer coord.Stop()
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()

	post := func(baseURL, body string) (int, []byte, string) {
		resp, err := http.Post(baseURL+"/v1/detect", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("detect: %v", err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data, resp.Header.Get(fleet.ReplicaHeader)
	}

	// Claim 1: whole-database byte parity, modulo duration_ms.
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
	status, direct, _ := post(single.URL, `{"database":"golden"}`)
	if status != http.StatusOK {
		t.Fatalf("single-node status %d: %s", status, direct)
	}
	status, routed, via := post(coordSrv.URL, `{"database":"golden"}`)
	if status != http.StatusOK {
		t.Fatalf("routed status %d: %s", status, routed)
	}
	if via == "" {
		t.Fatal("routed response missing replica header")
	}
	if !bytes.Equal(canon(direct), canon(routed)) {
		t.Fatalf("fleet-routed whole-db response differs from single node:\n direct: %s\n routed: %s", direct, routed)
	}

	// Claim 2: per-table fan-out reassembles the golden file exactly.
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	var want goldenReport
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	hit := make(map[string]bool)
	total, scanned := 0, 0
	for _, wt := range want.Tables {
		body := fmt.Sprintf(`{"database":"golden","tables":[%q]}`, wt.Table)
		status, data, replica := post(coordSrv.URL, body)
		if status != http.StatusOK {
			t.Fatalf("table %s: status %d: %s", wt.Table, status, data)
		}
		hit[replica] = true
		var resp service.DetectResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatalf("table %s: %v", wt.Table, err)
		}
		if resp.Degraded || len(resp.Tables) != 1 || resp.Tables[0].Table != wt.Table {
			t.Fatalf("table %s: unexpected response shape: %s", wt.Table, data)
		}
		got := resp.Tables[0]
		if len(got.Columns) != len(wt.Columns) {
			t.Fatalf("table %s: %d columns, golden has %d", wt.Table, len(got.Columns), len(wt.Columns))
		}
		for i, wc := range wt.Columns {
			gc := got.Columns[i]
			if gc.Column != wc.Column || gc.Phase != wc.Phase || gc.Degraded != wc.Degraded {
				t.Fatalf("table %s col %s: got phase=%d degraded=%v, golden %s phase=%d degraded=%v",
					wt.Table, gc.Column, gc.Phase, gc.Degraded, wc.Column, wc.Phase, wc.Degraded)
			}
			if fmt.Sprint(gc.Types) != fmt.Sprint(wc.Types) {
				t.Fatalf("table %s col %s: types %v, golden %v", wt.Table, gc.Column, gc.Types, wc.Types)
			}
		}
		total += resp.TotalColumns
		scanned += resp.ScannedColumns
	}
	if total != want.TotalColumns || scanned != want.ScannedColumns {
		t.Fatalf("column totals %d/%d scanned, golden %d/%d",
			total, scanned, want.TotalColumns, want.ScannedColumns)
	}
	if len(hit) < 2 {
		t.Fatalf("per-table requests all landed on one replica: %v", hit)
	}
}
