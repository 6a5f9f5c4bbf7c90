package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// shortOptions is a small-geometry run: every code path of a full run
// in a few seconds.
func shortOptions(t *testing.T, server string) options {
	return options{
		server: server, work: t.TempDir(), seed: 7, seconds: 0.6,
		blocks: 4096, setups: 2, warmup: 100 * time.Millisecond,
	}
}

func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "oram-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/oram-server")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building oram-server: %v\n%s", err, out)
	}
	return bin
}

// checkEmitted asserts that r carries exactly the documented metrics,
// each with its unit, and that no op failed, or, on a lossy workload,
// that lost ops were counted.
func checkEmitted(t *testing.T, r *result, docs []metricDoc, lossy bool) {
	t.Helper()
	got := map[string]string{}
	for _, m := range r.metrics {
		if _, dup := got[m.name]; dup {
			t.Errorf("metric %s emitted twice", m.name)
		}
		got[m.name] = m.unit
	}
	for _, d := range docs {
		if unit, ok := got[d.name]; !ok {
			t.Errorf("metric %s missing", d.name)
		} else if unit != d.unit {
			t.Errorf("metric %s has unit %q, want %q", d.name, unit, d.unit)
		}
		delete(got, d.name)
	}
	for name := range got {
		t.Errorf("undocumented metric %s", name)
	}
	if r.attempted == 0 || len(r.problems) != 0 {
		t.Errorf("attempted %d, problems %q", r.attempted, r.problems)
	}
	if lossy && r.failed == 0 {
		t.Errorf("no op failed on a lossy workload: the server no longer loses them; clear lossy and manual")
	} else if !lossy && r.failed != 0 {
		t.Errorf("%d of %d ops failed", r.failed, r.attempted)
	}
}

func TestWorkloadsShort(t *testing.T) {
	server := buildServer(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := runServed(shortOptions(t, server), w)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, r, endToEnd, w.lossy)
			notes := map[string]float64{}
			for _, n := range r.notes {
				notes[n.name] = n.value
			}
			if v, ok := notes["err_ratio"]; !ok || (v == 0) == w.lossy {
				t.Errorf("err_ratio = %v (present %v) on a lossy=%v workload", v, ok, w.lossy)
			}
			for _, name := range []string{"ops_per_s", "req_p50_us", "req_p99_us", "setup_wall_s"} {
				if v := notes[name]; v <= 0 {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
			if _, ok := notes["read_p99_us"]; ok != (w.batch == 0) {
				t.Errorf("read_p99_us present = %v with batch %d", ok, w.batch)
			}
			if _, ok := notes["modeled_cycles_per_op"]; ok != w.timed {
				t.Errorf("modeled_cycles_per_op present = %v on a timed=%v workload", ok, w.timed)
			}

			tr, err := runTraced(shortOptions(t, server), w)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, tr, perLayer, w.lossy)
		})
	}
}

// TestCheckerCountsCorruptedRead feeds the result checker a good read and
// corrupted, stale, zero and failed ones.
func TestCheckerCountsCorruptedRead(t *testing.T) {
	w, err := lookupWorkload("wal-single")
	if err != nil {
		t.Fatal(err)
	}
	g := newConnGen(1, 3, 1024, w)
	c := newHTTPConn(g, w, "http://127.0.0.1:1")
	defer c.close()
	p := g.plan(op{write: true, idx: 5})
	read := planned{op: op{idx: 5}, ver: p.ver}
	line := func(data []byte) []byte {
		b, _ := json.Marshal(map[string]any{"addr": g.addr(5), "data": data})
		return b
	}
	good := payload(g.addr(5), p.ver, make([]byte, blockSize))
	if !c.checkResult(read, line(good)) {
		t.Fatal("a correct read failed the check")
	}
	corrupt := append([]byte(nil), good...)
	corrupt[40] ^= 1
	cases := map[string][]byte{
		"corrupted": line(corrupt),
		"stale":     line(payload(g.addr(5), p.ver-1, make([]byte, blockSize))),
		"zero":      line(make([]byte, blockSize)),
		"short":     line(good[:32]),
		"error":     []byte(`{"error":"boom"}`),
	}
	for name, l := range cases {
		if c.checkResult(read, l) {
			t.Errorf("%s read passed the check", name)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the workload and metric
// tables.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var driven []*workload
	for _, w := range workloads {
		if !w.manual {
			driven = append(driven, w)
		}
	}
	if len(b.Workloads) != len(driven) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d driven by the harness", len(b.Workloads), len(driven))
	}
	for i, w := range driven {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, harness %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the harness %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if e := b.EndToEnd[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, harness %+v", i, e, d)
		}
	}
	for i, d := range perLayer {
		if e := b.PerLayer[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, harness %+v", i, e, d)
		}
	}
}
