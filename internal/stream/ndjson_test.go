package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/synth"
)

// decodeAll reads records until the first error, as the ingestion
// endpoint does, and returns them with that error.
func decodeAll(decode func(*TaskRecord) error) ([]TaskRecord, error) {
	var out []TaskRecord
	for {
		var rec TaskRecord
		if err := decode(&rec); err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// strictDecoder is the reference: encoding/json as the ingestion
// endpoint configured it before RecordDecoder, with the record cap
// applied on its own terms. It reads the body up front, then decodes
// each record with a fresh json.Decoder that sees the body from the end
// of the previous record for at most MaxRecordBytes, followed by
// ErrRecordTooLong if the body goes on that far, else by the body's own
// end (io.EOF or its read error).
func strictDecoder(r io.Reader) func(*TaskRecord) error {
	body, readErr := io.ReadAll(r)
	if readErr == nil {
		readErr = io.EOF
	}
	off := 0
	return func(rec *TaskRecord) error {
		rest, end := body[off:], readErr
		if len(rest) >= MaxRecordBytes {
			rest, end = rest[:MaxRecordBytes], ErrRecordTooLong
		}
		dec := json.NewDecoder(io.MultiReader(bytes.NewReader(rest), iotest.ErrReader(end)))
		dec.DisallowUnknownFields()
		err := dec.Decode(rec)
		off += int(dec.InputOffset())
		return err
	}
}

// checkSameAsJSON requires RecordDecoder to give the reference's records
// and final error on the body read whole, one byte at a time, and cut
// half-way by a read error that repeats.
func checkSameAsJSON(t *testing.T, body []byte) {
	t.Helper()
	errCut := errors.New("connection reset")
	readers := []struct {
		name string
		open func() io.Reader
	}{
		{"whole", func() io.Reader { return bytes.NewReader(body) }},
		{"one byte per read", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(body)) }},
		{"cut half-way", func() io.Reader {
			return io.MultiReader(bytes.NewReader(body[:len(body)/2]), iotest.ErrReader(errCut))
		}},
	}
	for _, r := range readers {
		want, wantErr := decodeAll(strictDecoder(r.open()))
		got, gotErr := decodeAll(NewRecordDecoder(r.open()).Decode)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %q: records\n got %+v\nwant %+v", r.name, body, got, want)
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: %q: error %q, want %q", r.name, body, gotErr, wantErr)
		}
	}
}

// recordSeeds open every way off the fast path, and the fast path
// itself. A plain go test runs them as FuzzRecordDecoder's corpus.
var recordSeeds = []string{
	"",
	`{"id":1,"submit":0,"runtime":600,"nodes":4}` + "\n" + `{"end":true}` + "\n",
	`{"id":7,"name":"a, b}","submit":5,"runtime":9,"nodes":2,"workload":"org"}` + "\n",
	`{}` + "\n",
	`{"end":false,"id":-3,"nodes":-1}` + "\n",
	`{"ID":1,"submit":0,"runtime":60,"nodes":1}` + "\n",             // case-insensitive key
	`{"id":1,"id":2,"nodes":1,"nodes":3}` + "\n",                    // duplicate keys: last wins
	`{"id":null,"nodes":1}` + "\n",                                  // null
	`{"id":1.0,"nodes":1}` + "\n",                                   // fraction
	`{"id":1e3,"nodes":1}` + "\n",                                   // exponent
	`{"id":01,"nodes":1}` + "\n",                                    // leading zero
	`{"id":-0,"nodes":1}` + "\n",                                    // negative zero
	`{"id":12345678901234567890,"nodes":1}` + "\n",                  // 20 digits
	`{"id":123456789012345678,"submit":-123456789012345678}` + "\n", // 18 digits
	`{"id":1234567890123456789,"nodes":1}` + "\n",                   // 19 digits
	`{"name":"\u0041b","nodes":1}` + "\n",                           // escape
	"{\"name\":\"caf\xc3\xa9\",\"nodes\":1}\n",                      // valid UTF-8
	"{\"name\":\"caf\xe9\",\"nodes\":1}\n",                          // invalid UTF-8
	"{\"name\":\"a\x7f\",\"nodes\":1}\n",                            // DEL
	`{"id":"1","nodes":1}` + "\n",                                   // string for int
	`{"end":1}` + "\n",                                              // number for bool
	`{"end":tru}` + "\n",                                            // bad literal
	`{"bogus":true}` + "\n",                                         // unknown field
	`{"id":1}{"id":2}` + "\n",                                       // two objects on one line
	`{"id":1,` + "\n" + `"nodes":2}` + "\n",                         // one object split across lines
	"\n\n" + `{"id":1}` + "\n\n",                                    // blank lines
	`{"id":1}` + "\n" + `{"id":2}`,                                  // no final newline
	`{"id":1}` + "\r\n",                                             // CRLF
	` {"id":1} ` + "\n",                                             // spaces
	`{"id":1,}` + "\n",                                              // trailing comma
	`{"id":1` + "\n",                                                // truncated object
	`{"id":1}` + "\n" + `{"nam`,                                     // truncated input
	`[1,2]` + "\n" + `{"id":1}` + "\n",                              // not an object
	`{"name":"` + strings.Repeat("x", 5000) + `","nodes":1}` + "\n" + `{"id":2}` + "\n",                     // line over 4 KiB
	`{"id":1}` + "\n" + `{"name":"` + strings.Repeat("x", MaxRecordBytes) + `"}` + "\n" + `{"id":3}` + "\n", // record over the cap
	`{"id":1}` + "\n" + `{"name":"` + strings.Repeat("x", MaxRecordBytes-12) + `"}` + "\n",                  // record of exactly the cap
	`{"id":1}` + "\n" + `{"name":"` + strings.Repeat("x", MaxRecordBytes-11) + `"}` + "\n",                  // one byte over the cap
	strings.Repeat(" ", MaxRecordBytes) + `{"id":1}` + "\n",                                                 // leading space over the cap
	`{"name":"` + strings.Repeat("x", MaxRecordBytes) + `"`,                                                 // truncated over the cap
}

func FuzzRecordDecoder(f *testing.F) {
	for _, s := range recordSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkSameAsJSON)
}

// TestWriteNDJSONTakesFastPath requires every line WriteNDJSON writes —
// a generated NASA workload and the end record, with and without a
// workload lane — to decode without the fallback.
func TestWriteNDJSONTakesFastPath(t *testing.T) {
	m := synth.NASAiPSC(7)
	m.Days = 2
	jobs, err := m.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, lane := range []string{"", "org-nasa"} {
		var body bytes.Buffer
		if err := WriteNDJSON(&body, lane, jobs); err != nil {
			t.Fatal(err)
		}
		d := NewRecordDecoder(bytes.NewReader(body.Bytes()))
		got, err := decodeAll(d.Decode)
		if err != io.EOF {
			t.Fatalf("lane %q: %v", lane, err)
		}
		if d.dec != nil {
			t.Errorf("lane %q: fell back to encoding/json after %d records", lane, len(got))
		}
		if len(got) != len(jobs)+1 || !got[len(jobs)].End {
			t.Fatalf("lane %q: %d records, want %d tasks and the end record", lane, len(got), len(jobs))
		}
		for i := range jobs {
			if j := got[i].Job(); !reflect.DeepEqual(j, jobs[i]) || got[i].Workload != lane {
				t.Fatalf("lane %q: record %d = %+v, want job %+v", lane, i+1, got[i], jobs[i])
			}
		}
		checkSameAsJSON(t, body.Bytes())
	}
}
