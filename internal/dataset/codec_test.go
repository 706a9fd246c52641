package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"
)

// esc spells the JSON escape backslash-u followed by four hex digits.
func esc(hex string) string { return `\` + "u" + hex }

// awkward holds one of every class of character encoding/json treats
// specially in a string: the HTML-escaped < > &, the quote, backslash and
// slash, the short-escaped and the other control bytes, DEL, U+2028 and
// U+2029, invalid UTF-8, and non-ASCII text.
const awkward = "<>&\"\\/ \x00\x01\b\f\n\r\t\x1f\x7f \xe2\x80\xa8\xe2\x80\xa9 \xff\xc3 \xc3\xa9\xe6\xbc\xa2\xf0\x9f\x98\x80"

// fill sets every field reachable from v to a distinct non-zero value:
// strings carry awkward, times a zone offset and nanoseconds, slices two
// elements, pointers a filled value. A field of a kind fill does not
// know fails the test, so a new field cannot pass the codec unexamined.
func fill(t *testing.T, v reflect.Value, seq *int) {
	*seq++
	n := *seq
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d %s %d", n, awkward, n))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(n) * 1_000_003 * int64(1-2*(n%2)))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fill(t, s.Index(i), seq)
		}
		v.Set(s)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fill(t, p.Elem(), seq)
		v.Set(p)
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			zone := time.FixedZone("", (n%25-12)*1800)
			v.Set(reflect.ValueOf(time.Date(1990+n, time.Month(n%12+1), n%28+1, n%24, n%60, n%60, n*1001, zone)))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), seq)
		}
	default:
		t.Fatalf("fill: no value for %s field: teach fill and the codec", v.Type())
	}
}

func filledRecord(t *testing.T) *HostRecord {
	r := new(HostRecord)
	seq := 0
	fill(t, reflect.ValueOf(r).Elem(), &seq)
	return r
}

// checkCodec asserts that AppendRecord writes json.Marshal's bytes and
// that the decoder reads that line on its fast path into json.Unmarshal's
// record.
func checkCodec(t *testing.T, r *HostRecord) {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendRecord(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		from := max(0, i-40)
		t.Fatalf("AppendRecord differs from json.Marshal at byte %d:\n got …%s\nwant …%s",
			i, got[from:min(len(got), i+40)], want[from:min(len(want), i+40)])
	}
	checkDecode(t, got)
}

// checkDecode decodes line on the fast path.
func checkDecode(t *testing.T, line []byte) {
	t.Helper()
	ref := new(HostRecord)
	if err := json.Unmarshal(line, ref); err != nil {
		t.Fatal(err)
	}
	fast := new(HostRecord)
	if !parseRecord(line, fast) {
		t.Fatalf("line fell back to encoding/json: %s", line)
	}
	if !reflect.DeepEqual(fast, ref) {
		t.Fatalf("fast path decoded\n %+v\nwant json.Unmarshal's\n %+v", fast, ref)
	}
}

// TestCodecMatchesJSON is the schema-drift guard: every field of the four
// record types, filled by reflection, encodes to json.Marshal's bytes and
// decodes on the fast path to json.Unmarshal's record; so do the
// omitempty and nil-versus-empty variants and real dataset lines.
func TestCodecMatchesJSON(t *testing.T) {
	cases := []struct {
		name string
		edit func(*HostRecord)
	}{
		{"every field", func(*HostRecord) {}},
		{"zero record", func(r *HostRecord) { *r = HostRecord{} }},
		{"token types nil and empty", func(r *HostRecord) {
			r.Endpoints[0].TokenTypes = nil
			r.Endpoints[1].TokenTypes = []string{}
		}},
		{"no cert", func(r *HostRecord) { r.Cert = nil }},
		{"empty slices", func(r *HostRecord) {
			r.Endpoints, r.Nodes, r.Namespaces = []EndpointRecord{}, []NodeRecord{}, []string{}
		}},
		{"empty value sample", func(r *HostRecord) { r.Nodes[0].ValueSample = "" }},
		{"UTC and zero-offset times", func(r *HostRecord) {
			r.Date = r.Date.UTC()
			r.Cert.NotBefore = r.Cert.NotBefore.In(time.FixedZone("", 0))
			r.Cert.NotAfter = time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.FixedZone("", 86399))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := filledRecord(t)
			tc.edit(r)
			checkCodec(t, r)
		})
	}

	t.Run("dataset lines", func(t *testing.T) {
		f, err := os.Open("testdata/records.jsonl")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		var lines [][]byte
		for sc.Scan() {
			lines = append(lines, append([]byte(nil), sc.Bytes()...))
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		for _, line := range lines {
			checkDecode(t, line)
			r, _ := decodeRecord(line)
			if got, _ := AppendRecord(nil, r); !bytes.Equal(got, line) {
				t.Errorf("re-encoded line differs:\n got %s\nwant %s", got, line)
			}
		}
	})
}

// TestAppendRecordRefusesWhatMarshalRefuses: a time encoding/json cannot
// render fails the record and leaves dst as it was.
func TestAppendRecordRefusesWhatMarshalRefuses(t *testing.T) {
	for _, edit := range []func(*HostRecord){
		func(r *HostRecord) { r.Date = time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC) },
		func(r *HostRecord) { r.Date = time.Date(2020, 1, 1, 0, 0, 0, 0, time.FixedZone("", -86400)) },
		func(r *HostRecord) { r.Cert.NotAfter = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) },
	} {
		r := filledRecord(t)
		edit(r)
		if _, err := json.Marshal(r); err == nil {
			t.Fatalf("json.Marshal accepted %v / %v", r.Date, r.Cert.NotAfter)
		}
		got, err := AppendRecord([]byte("kept"), r)
		if err == nil || string(got) != "kept" {
			t.Errorf("AppendRecord = %q, %v; want \"kept\" and an error", got, err)
		}
	}
}

func decodeSeeds(f *testing.F) {
	data, err := os.ReadFile("testdata/records.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		f.Add(line)
	}
	for _, s := range []string{
		`{"wave":1,"wave":2}`,
		`{"Wave":1,"ADDRESS":"a"}`,
		`{"cert":null}`,
		`{"endpoints":null,"address":null}`,
		`{"endpoints":[{"token_types":null},{"token_types":[]}],"nodes":[],"namespaces":[]}`,
		`{"address":"` + esc("d83d") + esc("de00") + `"}`,
		`{"address":"` + esc("d800") + `x"}`,
		`{"via":"a\"\\\/\b\f\n\r\t` + esc("0041") + esc("0026") + `"}`,
		"{\"via\":\"\xff\"}",
		"{\"via\":\"\x01\"}",
		`{"wave":1.0}`,
		`{"wave":1e2}`,
		`{"wave":01}`,
		`{"wave":-0}`,
		`{"asn":9223372036854775808}`,
		`{"bytes":-9223372036854775808,"duration":9223372036854775807}`,
		`{"wave":1} x`,
		`{"wave":1}}`,
		` { "wave" : 1 , "via" : "a" , "cert" : { } } `,
		`{"date":"2020-01-01T00:00:00` + esc("005a") + `"}`,
		`{"date":"yesterday"}`,
		`{"date":"2020-02-09T00:00:00+05:30","cert":{"not_after":"2020-02-09T00:00:00.5-01:00"}}`,
		`{"unknown":1}`,
		``,
	} {
		f.Add([]byte(s))
	}
}

// FuzzDecodeRecord: for any line, the record and the error text are
// json.Unmarshal's.
func FuzzDecodeRecord(f *testing.F) {
	decodeSeeds(f)
	f.Fuzz(func(t *testing.T, line []byte) {
		got, err := decodeRecord(line)
		want := new(HostRecord)
		wantErr := json.Unmarshal(line, want)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, want json.Unmarshal's %v", err, wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded\n %+v\nwant json.Unmarshal's\n %+v", got, want)
		}
	})
}

// FuzzAppendRecord: for a record of fuzzed strings, integers and
// booleans, AppendRecord writes json.Marshal's bytes (or fails where it
// fails), and the line decodes on the fast path.
func FuzzAppendRecord(f *testing.F) {
	f.Add("100.64.0.5:4840", "B&R Industrial Automation", int64(1581206400), int64(19800), false)
	f.Add(awkward, "", int64(-62135596800), int64(-3600), true)
	f.Add("", esc("d800"), int64(253402300800), int64(999999999), false)
	f.Add("a\xffb", "\xe2\x80\xa8", int64(0), int64(-86400), true)
	f.Fuzz(func(t *testing.T, a, b string, n, m int64, flag bool) {
		at := time.Unix(n, m).In(time.FixedZone("", int(m%200000)))
		r := &HostRecord{
			Wave: int(n), Date: at, Address: a, ASN: int(m), Via: b,
			ReachedOPCUA: flag, Error: a, FailureClass: b, SoftwareVersion: a + b,
			Endpoints: []EndpointRecord{{URL: a, Mode: b, PolicyURI: a + b, TokenTypes: []string{a, b}}},
			Cert: &CertRecord{
				Thumbprint: a, Bits: int(n), NotBefore: at.UTC(), NotAfter: at,
				SubjectOrg: b, SelfSigned: flag, ModulusB64: a,
			},
			AnonOK: flag, AnonError: b, Namespaces: []string{a},
			Nodes:    []NodeRecord{{ID: a, DisplayName: b, Writable: flag, ValueSample: a}},
			Readable: int(m), Bytes: m, Duration: time.Duration(n),
		}
		if flag {
			r.Cert, r.Endpoints[0].TokenTypes = nil, nil
		}
		want, wantErr := json.Marshal(r)
		got, err := AppendRecord([]byte("kept"), r)
		if wantErr != nil {
			if err == nil || string(got) != "kept" {
				t.Fatalf("json.Marshal failed (%v) but AppendRecord = %q, %v", wantErr, got, err)
			}
			return
		}
		if err != nil || !bytes.Equal(got[len("kept"):], want) {
			t.Fatalf("AppendRecord = %s, %v\nwant json.Marshal's %s", got, err, want)
		}
		checkDecode(t, want)
	})
}
