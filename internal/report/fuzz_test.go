package report

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReportLoad: any bytes yield an error from Load or a Report that
// encodes, loads back, and encodes to the same bytes. Equality is the
// encoding's: an empty list and a missing one both encode as absent.
func FuzzReportLoad(f *testing.F) {
	b, err := os.ReadFile("testdata/report.golden.json") // every section present
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add(b[:len(b)/2])
	f.Add(b[:len(b)/4])
	for _, in := range []string{"", "null", "{}", `{"schema":"mhm2sim-report/v0"}`,
		`{"schema":"mhm2sim-report/v1","stages_ns":{"alignment":5},"total_ns":5,"assembly":{"contigs":1,"bases":90,"n50":90,"longest":90,"scaffolds":1},"bins":[{"k":21,"bin1_zero":1,"bin2_small":0,"bin3_large":0}]}`,
		`{"schema":"mhm2sim-report/v1","stages_ns":null,"dist":{"per_rank":[{}],"components":[]}}`} {
		f.Add([]byte(in))
	}
	path := filepath.Join(f.TempDir(), "report.json") // one per fuzz worker process
	f.Fuzz(func(t *testing.T, data []byte) {
		load := func(b []byte) (*Report, error) {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			return Load(path)
		}
		r, err := load(data)
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := r.Encode(&once); err != nil {
			t.Fatal(err)
		}
		back, err := load(once.Bytes())
		if err != nil {
			t.Fatalf("loading an encoded report: %v\n%s", err, once.Bytes())
		}
		if err := back.Encode(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("report changed across encode and load:\n%s\nthen:\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
