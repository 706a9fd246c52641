package report

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/uapolicy"
)

func sampleWave(t *testing.T) *core.WaveAnalysis {
	t.Helper()
	date := time.Date(2020, 8, 30, 0, 0, 0, 0, time.UTC)
	recs := []*dataset.HostRecord{
		{
			Wave: 7, Date: date, Address: "1.1.1.1:4840", ASN: 64600,
			ReachedOPCUA: true, AppURI: "urn:bachmann.info:M1:1",
			ApplicationType: "Server",
			Endpoints: []dataset.EndpointRecord{{
				URL: "opc.tcp://1.1.1.1:4840", Mode: "None",
				PolicyURI: uapolicy.URINone, TokenTypes: []string{"Anonymous"},
			}},
			AnonOffered: true, AnonAttempted: true, AnonOK: true,
			Namespaces: []string{"http://opcfoundation.org/UA/"},
			Variables:  10, Readable: 10, Writable: 2, Methods: 2, Executable: 2,
		},
		{
			Wave: 7, Date: date, Address: "1.1.1.2:4840", ASN: 64601,
			ReachedOPCUA: true, AppURI: "urn:wago.com:codesys:2",
			ApplicationType: "Server",
			Endpoints: []dataset.EndpointRecord{{
				URL: "opc.tcp://1.1.1.2:4840", Mode: "SignAndEncrypt",
				PolicyURI: uapolicy.URIBasic256Sha256, TokenTypes: []string{"UserName"},
			}},
		},
	}
	acc := core.NewWaveAccumulator(7, date)
	for _, r := range recs {
		acc.Add(r)
	}
	return acc.Finalize(0)
}

func TestTable1Shape(t *testing.T) {
	tbl := Table1()
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	text := tbl.Render()
	for _, want := range []string{"Basic256Sha256", "deprecated", "insecure", "recommended"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestFigureRenderersProduceContent(t *testing.T) {
	w := sampleWave(t)
	la := core.NewLongitudinalAccumulator(true)
	la.AddWave(w)
	long := la.Finalize()
	tables := All([]*core.WaveAnalysis{w}, long)
	if len(tables) != 11 {
		t.Fatalf("tables = %d", len(tables))
	}
	for _, tbl := range tables {
		if tbl.Title == "" || len(tbl.Header) == 0 {
			t.Errorf("table %+v missing title/header", tbl)
		}
		text := tbl.Render()
		if !strings.Contains(text, tbl.Header[0]) {
			t.Errorf("render of %q missing header", tbl.Title)
		}
	}
}

func TestFigure3Numbers(t *testing.T) {
	w := sampleWave(t)
	tbl := Figure3(w)
	text := tbl.Render()
	if !strings.Contains(text, "mode None") || !strings.Contains(text, "policy S2") {
		t.Errorf("Figure 3 rows missing:\n%s", text)
	}
	if !strings.Contains(text, "no security at all: 1") {
		t.Errorf("takeaway missing:\n%s", text)
	}
}

func TestTable2Totals(t *testing.T) {
	w := sampleWave(t)
	tbl := Table2(w)
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[3] != "total" || last[9] != "2" {
		t.Errorf("totals row = %v", last)
	}
}

func TestCSVEscaping(t *testing.T) {
	tbl := &Table{
		Title:  "t",
		Header: []string{"a", "b"},
		Rows:   [][]string{{`with,comma`, `with"quote`}},
	}
	csv := tbl.CSV()
	if !strings.Contains(csv, `"with,comma"`) || !strings.Contains(csv, `"with""quote"`) {
		t.Errorf("csv escaping wrong: %s", csv)
	}
}

func TestFigure8BothSplits(t *testing.T) {
	w := sampleWave(t)
	byVendor := Figure8(w, false).Render()
	byAS := Figure8(w, true).Render()
	if !strings.Contains(byVendor, "Bachmann") {
		t.Errorf("vendor split missing manufacturer:\n%s", byVendor)
	}
	if !strings.Contains(byAS, "AS64600") {
		t.Errorf("AS split missing ASN:\n%s", byAS)
	}
}
