package expt

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// figureGolden pins the rendered tables of every figure and extension at
// toy scale (2 trials, 2% scale, base seed 7): SHA-256 over the text
// hcexp would print for the figure. The simulator is deterministic, so a
// hash moves only when a decision, a metric or the table layout moves. A
// refactor that claims "same numbers" must pass this unedited; a PR that
// changes behaviour on purpose regenerates the table with
//
//	go test ./internal/expt -run TestFigureGolden -v
//
// and says why in its description.
var figureGolden = map[string]string{
	"fig5":         "0b84790e8fdc110dd4fe524a80d9f46c64c1ed715f00a00ff1d3dbf6ef8f4b9e",
	"fig6":         "a8f1f3f966d07c93b86e5e3d8650ebedde7dcaea76bd1711efe5113d3d5f407f",
	"fig7a":        "7f9be75f0d9fba7fe81f57866d09f8a2d8a1ff86a8ed965b74768b9eb38f4264",
	"fig7b":        "d1ee37d4a3973bce748503b59a74888cc6341b9d96ca228e36d78095c928ab2f",
	"fig8":         "e6e29ccd16d7d1824e8f50d9ad8cbfb290e34e50cea7d4a2b48331ceec4fe590",
	"fig9":         "958f8cd8ae07536bbed4a296a57505d3f704f45ec566feb3a247909f66313933",
	"fig10":        "ab270661878428caa9ef84b4dfacdfaa5da7c7466eb80255893d1b8f02c3b170",
	"drops":        "eaec06a07d67b94916228fa9f338e0fbf9666ea0f3d6373efe2af33e40dab240",
	"ext-gamma":    "699ba3fc83f39b62a6c05162dc696717c3891ec0bf1dbfd7eaaab60e3b511b98",
	"ext-queue":    "f71102fc2d83288a47435a451e6072ec4cee9ccec52a5d622232444faac765fa",
	"ext-budget":   "4e9fdfe711e7ec4558dc9146646f597f37dab7d14027c290939c3120ebe50edb",
	"ext-mappers":  "1b79577f30a1b51e0c531f4d5b984ee2cf4640b2e494fbe47633c7b7471a3def",
	"ext-failures": "d6ff016b8634d39e298ada7f7f2e3ed8e41e62500af6aa46fb0f3a7aefb728a7",
	"ext-approx":   "c946b775c519d73d5667d36fd712b54d8c5a8e2a1067dd6654382ad2ff8637ea",
}

func TestFigureGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("figure golden runs every sweep at toy scale")
	}
	o := DefaultOptions()
	o.Trials = 2
	o.Scale = 0.02
	figs := All()
	if len(figs) != len(figureGolden) {
		t.Errorf("%d figures registered, %d golden hashes", len(figs), len(figureGolden))
	}
	for _, f := range figs {
		tables, err := f.Run(context.Background(), o)
		if err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		var buf bytes.Buffer
		for i := range tables {
			tables[i].Fprint(&buf)
		}
		sum := sha256.Sum256(buf.Bytes())
		got := hex.EncodeToString(sum[:])
		if got != figureGolden[f.ID] {
			t.Errorf("%s: rendered tables hash to\n\t%q: %q,\nwant %q\n%s", f.ID, f.ID, got, figureGolden[f.ID], buf.String())
		}
	}
}
