package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenReports pins the SHA-256 of every RunExperiment text report at
// goldenParams. Worker-count invariance alone cannot catch a refactor
// that moves every output identically at every worker count; these
// digests can. They are the behaviour contract of the simulator: event
// order (FIFO ties within an instant), RNG draw order and retry
// accounting must all survive a rewrite of the request path untouched.
// The timeline figures 7 and 8 are included because their span labels
// come straight from the command state machine.
//
// A deliberate model change that moves a digest regenerates the whole
// table (the failure message prints each new value) and says why in
// CHANGES.md — never hand-patch a single row.
var goldenReports = map[string]string{
	"6":                  "96288c2b6d1a606b0f155b0a52290c69cd13439a180274650282c3953454e2bc",
	"7":                  "5e8aaa2f9fdc9639a23cebf227fc54dbe0240c8220aced431e7d289895e8b20f",
	"8":                  "5e8aaa2f9fdc9639a23cebf227fc54dbe0240c8220aced431e7d289895e8b20f",
	"17":                 "0c4b449f78dea2558796fe4235cd1f03f2d65b933f55ce73b99fd1f4a249a09b",
	"18":                 "5ca79fc9447c4251b79ce09e7d8e40afcace652f125b2f0ad148439a39867506",
	"19":                 "863f3ea611a982f9f100a143b8bad1cf7977f89f210174542a0ac4a3af145fed",
	"overhead":           "5ef2735e4652f21b46d503e8d54dedae74bd324de41f11e9caef9b36dbb35570",
	"ablate-chunk":       "c96962f702b0c2fb2cbdb851271ed58afe4fea486586967bca2c61ad79127931",
	"ablate-buffer":      "b4b6e2a6ef1724c6ff641d2c619081ce5d7147d253333e6d9481104c1f4710ee",
	"ablate-accuracy":    "2d84f6278155fe85b03f73913c64ee53598d5361a4c9052904fcf2777188ef3f",
	"ablate-scheduling":  "b250607c8c763527521105d1de03dec7695e6da076d9c3bac209d562ebc38e5b",
	"ablate-secondcheck": "b5bc9164dc658254c7b58901ce08318cd3e914e5953c0b81bd4cf8acb2921a4e",
	"refresh":            "4389e676ce9163c05a90f8091e743dc30dc9ce216b49a379398d0d246ff7821b",
	"tenants":            "a623b6815d1ce28b83d110137977fee640169a6118b21eaa66d30ad87356ebbb",
	"chaos":              "4a70ca568dec4af06750a9c4ca8d86d618e1d1294f095a68b44e21e12a947a50",
	"tailsweep":          "cf1305c9dff5b652118376c7d80925732e78ab90eff97ed5744299af8e43a28e",
	"agesweep":           "d5570be9293ddd8a6bf270e4051ec7518da7bfb3387012e7139b7e7bd424148f",
}

// goldenParams is the small fixed sizing the digests are taken at:
// enough requests for retries, GC and reclaim to fire in most cells,
// few enough that the whole table runs in seconds.
func goldenParams() RunParams {
	p := DefaultRunParams()
	p.Requests = 400
	p.Workers = 2
	return p
}

// TestGoldenReportsCoverEveryExperiment keeps the table and the
// experiment registry in lockstep.
func TestGoldenReportsCoverEveryExperiment(t *testing.T) {
	exps := ValidExperiments()
	if len(goldenReports) != len(exps) {
		t.Errorf("golden table has %d rows, registry has %d experiments", len(goldenReports), len(exps))
	}
	for _, exp := range exps {
		if _, ok := goldenReports[exp]; !ok {
			t.Errorf("experiment %q has no golden report digest", exp)
		}
	}
}

// TestGoldenReportDigests runs every experiment at goldenParams and
// compares the report's SHA-256 with the table.
func TestGoldenReportDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, exp := range ValidExperiments() {
		t.Run(exp, func(t *testing.T) {
			var buf bytes.Buffer
			if err := RunExperiment(&buf, exp, goldenParams()); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != goldenReports[exp] {
				t.Errorf("report digest of %s = %s, golden %s — the simulator's output moved; if on purpose, regenerate the table and record why",
					exp, got, goldenReports[exp])
			}
		})
	}
}
