package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// tinySizing shrinks every workload to a fraction of a second.
func tinySizing() sizing {
	return sizing{
		seconds:        0.01,
		minUnits:       1,
		setupReps:      1,
		setupGrids:     1,
		gridRequests:   20,
		gridWorkers:    2,
		replayRequests: 3000,
		replayIOPS:     30_000,
		replaySlice:    500,
		missRequests:   10,
		misses:         3,
		hits:           6,
		hitRate:        500,
		hotSpecs:       2,
		cellWorkers:    2,
	}
}

func tinyRun(t *testing.T, workload string, traced bool) *run {
	t.Helper()
	dir := t.TempDir()
	r := newRun(workload, 7, traced, tinySizing(), filepath.Join(dir, "work"), dir)
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := r.execute(); err != nil {
		t.Fatalf("%s (trace=%v): %v", workload, traced, err)
	}
	return r
}

// Every workload emits every named metric, with its unit, in both the
// end-to-end and the traced run, and passes its output checks.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := tinyRun(t, w, traced)
			res, err := r.result()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace=%v): correct=%v attempted=%d failed=%d problems=%v",
					w, traced, res.Correct, res.Attempted, res.Failed, r.problems)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace=%v): %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s (trace=%v): metric %s = %+v, want unit %q", w, traced, m.name, got, m.unit)
				}
			}
			if !traced {
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w, m.name, res.Metrics[m.name].Value)
					}
				}
			}
		}
	}
}

// flipDigit returns a copy of b with the first digit at or after off
// changed.
func flipDigit(t *testing.T, b []byte, off int) []byte {
	t.Helper()
	c := append([]byte(nil), b...)
	for i := off; i < len(c); i++ {
		if c[i] >= '0' && c[i] <= '9' {
			c[i] = '0' + (c[i]-'0'+1)%10
			return c
		}
	}
	t.Fatal("no digit to flip")
	return nil
}

func tinyGrid(t *testing.T) (core.RunParams, []byte) {
	t.Helper()
	r := newRun(wGrid, 7, false, tinySizing(), "", "")
	p := r.gridParams()
	var buf bytes.Buffer
	if err := core.RunExperiment(&buf, "17", p); err != nil {
		t.Fatal(err)
	}
	return p, buf.Bytes()
}

func TestGridChecksCatchCorruption(t *testing.T) {
	p, report := tinyGrid(t)
	if err := checkGridReport(report); err != nil {
		t.Fatalf("clean report: %v", err)
	}

	// A missing cell and a baseline that no longer reads 1.00.
	lines := strings.Split(string(report), "\n")
	var dropped []string
	for _, l := range lines {
		if !strings.HasPrefix(l, "RiFSSD") {
			dropped = append(dropped, l)
		}
	}
	if checkGridReport([]byte(strings.Join(dropped, "\n"))) == nil {
		t.Error("report without RiFSSD rows passed")
	}
	senc := bytes.Index(report, []byte("\nSENC "))
	if checkGridReport(flipDigit(t, report, senc)) == nil {
		t.Error("report with a corrupted SENC baseline passed")
	}

	// One flipped digit in the spot-checked column.
	col := spotColumn(7)
	want, err := spotRatios(p, col)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSpot(report, col, want); err != nil {
		t.Fatalf("clean spot check: %v", err)
	}
	if checkSpot(corruptCell(t, report, gridCell{ssd.RiF, col.workload, col.pe}), col, want) == nil {
		t.Error("report with a flipped spot-checked cell passed")
	}

	// Every later grid, traced or not, must match the first byte for
	// byte.
	reports := &gridReports{}
	for i := 0; i < 2; i++ {
		if err := reports.check(report); err != nil {
			t.Fatalf("clean report %d: %v", i, err)
		}
	}
	if reports.check(flipDigit(t, report, len(fig17Header)+200)) == nil {
		t.Error("grid whose report has a flipped table byte passed")
	}
}

// corruptCell changes the last digit of one cell's printed ratio.
func corruptCell(t *testing.T, report []byte, c gridCell) []byte {
	t.Helper()
	lines := strings.Split(string(report), "\n")
	pe := -1
	for i, l := range lines {
		var k int
		if n, _ := fmt.Sscanf(l, "== %dK P/E cycles", &k); n == 1 {
			pe = k * 1000
			continue
		}
		f := strings.Fields(l)
		if pe != c.pe || len(f) == 0 || f[0] != c.scheme.String() {
			continue
		}
		for j, w := range trace.Names() {
			if w == c.workload {
				v := []byte(f[j+1])
				v[len(v)-1] = '0' + (v[len(v)-1]-'0'+1)%10
				f[j+1] = string(v)
			}
		}
		row := fmt.Sprintf("%-8s", f[0])
		for _, v := range f[1:] {
			row += fmt.Sprintf("%9s", v)
		}
		if len(row) != len(l) {
			t.Fatalf("rebuilt row %q does not match %q", row, l)
		}
		lines[i] = row
		return []byte(strings.Join(lines, "\n"))
	}
	t.Fatalf("cell %v not found", c)
	return nil
}

func TestReplayChecksCatchCorruption(t *testing.T) {
	r := newRun(wReplay, 7, false, tinySizing(), t.TempDir(), "")
	in, err := generateTrace(filepath.Join(r.work, "t.csv"), r.seed, r.size.replayRequests, r.size.replayIOPS)
	if err != nil {
		t.Fatal(err)
	}
	pass, err := r.replayOnce(in, 0, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReplay(pass.res, in); err != nil {
		t.Fatalf("clean replay: %v", err)
	}
	short := in
	short.requests++
	if checkReplay(pass.res, short) == nil {
		t.Error("replay missing a request passed")
	}
	fewerReads := in
	fewerReads.reads--
	if checkReplay(pass.res, fewerReads) == nil {
		t.Error("latency sketch with an extra sample passed")
	}

	if err := checkTraceFile(in); err != nil {
		t.Fatalf("clean trace file: %v", err)
	}
	raw, err := os.ReadFile(in.path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in.path, flipDigit(t, raw, len(raw)/2), 0o644); err != nil {
		t.Fatal(err)
	}
	if checkTraceFile(in) == nil {
		t.Error("trace file with a flipped byte passed")
	}
}

func TestServeChecksCatchCorruption(t *testing.T) {
	r := newRun(wServe, 7, false, tinySizing(), t.TempDir(), "")
	srv, hot, err := r.serveSetup(0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	ph := r.runMix(srv, hot, 4, 1, 0, 1)
	for _, j := range ph.hits {
		if err := checkHit(j, hot); err != nil {
			t.Fatalf("clean hit: %v", err)
		}
	}
	if err := checkMiss(ph.misses[0]); err != nil {
		t.Fatalf("clean miss: %v", err)
	}
	if err := checkInProcess(hot[0].spec, hot[0].report); err != nil {
		t.Fatalf("clean in-process check: %v", err)
	}

	hit := *ph.hits[0]
	hit.report = flipDigit(t, hit.report, len(hit.report)/2)
	if checkHit(&hit, hot) == nil {
		t.Error("hit with a flipped report byte passed")
	}
	if checkInProcess(hot[0].spec, flipDigit(t, hot[0].report, len(hot[0].report)/2)) == nil {
		t.Error("served report with a flipped byte matched core.RunExperiment")
	}
	miss := *ph.misses[0]
	miss.report = miss.report[:len(miss.report)/2]
	miss.events = append([]timedEvent(nil), miss.events...)
	miss.events[len(miss.events)-1].Completed--
	if checkMiss(&miss) == nil {
		t.Error("miss with a truncated report passed")
	}

	// Failed operations are counted against attempts.
	bad := mixPhase{hits: []*jobRun{&hit, ph.hits[1]}, misses: ph.misses}
	before := r.failed
	r.checkMix(bad, hot)
	if r.failed != before+1 {
		t.Errorf("checkMix counted %d failures, want 1", r.failed-before)
	}
}

// BENCHMARK.json names exactly the workloads and metrics the harness
// reports, with the same units.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("workloads %v, harness runs %v", names, workloads)
	}
	same := func(kind string, got []metric, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, harness reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), harness reports %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
