package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/job"
)

// TaskRecord is the NDJSON wire form of one live-ingested task: the
// line format of dcserve's POST /v1/runs/{id}/tasks body and of dcscen
// -emit-ndjson output. A stream is task records in nondecreasing submit
// order followed by an explicit end-of-stream record ({"end":true});
// producers that stop without the end record leave the run waiting
// (its virtual clock cannot prove no earlier task is coming).
//
// Workload routes the record to one live provider lane; it may be empty
// when the run has exactly one. An end record with an empty workload
// ends every lane.
type TaskRecord struct {
	End      bool   `json:"end,omitempty"`
	ID       int    `json:"id,omitempty"`
	Name     string `json:"name,omitempty"`
	Submit   int64  `json:"submit,omitempty"`
	Runtime  int64  `json:"runtime,omitempty"`
	Nodes    int    `json:"nodes,omitempty"`
	Workload string `json:"workload,omitempty"`
}

// Job lowers the record to the simulator's job form. Live lanes are
// HTC by construction (scenario validation rejects live MTC sources),
// so the class is fixed here.
func (r *TaskRecord) Job() job.Job {
	return job.Job{
		ID:      r.ID,
		Name:    r.Name,
		Class:   job.HTC,
		Submit:  r.Submit,
		Runtime: r.Runtime,
		Nodes:   r.Nodes,
	}
}

// WriteNDJSON encodes jobs as task records — one JSON object per line,
// each tagged with the given workload lane — followed by the
// end-of-stream record. The output is exactly what POST
// /v1/runs/{id}/tasks ingests.
func WriteNDJSON(w io.Writer, workload string, jobs []job.Job) error {
	enc := json.NewEncoder(w)
	for i := range jobs {
		j := &jobs[i]
		rec := TaskRecord{
			ID: j.ID, Name: j.Name,
			Submit: j.Submit, Runtime: j.Runtime, Nodes: j.Nodes,
			Workload: workload,
		}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("stream: encode task %d: %w", j.ID, err)
		}
	}
	if err := enc.Encode(TaskRecord{End: true, Workload: workload}); err != nil {
		return fmt.Errorf("stream: encode end record: %w", err)
	}
	return nil
}

// MaxRecordBytes bounds one task record: the bytes from the end of the
// previous record (or the start of the body) through the record's last
// byte. A record that needs more fails with ErrRecordTooLong, so a body
// cannot make the decoder buffer an unbounded value.
const MaxRecordBytes = 64 << 10

// ErrRecordTooLong is the error for a record over MaxRecordBytes.
var ErrRecordTooLong = fmt.Errorf("stream: record exceeds %d bytes", MaxRecordBytes)

// fastLineBytes is the fast path's line buffer. A longer line goes to
// the fallback, so the fast path never holds a record near
// MaxRecordBytes.
const fastLineBytes = 4 << 10

// RecordDecoder reads task records from an NDJSON body with the
// semantics of a json.Decoder with DisallowUnknownFields, reading each
// record through at most MaxRecordBytes: the same records, the same
// error text, at the same record. It parses the lines WriteNDJSON writes
// without reflection: one compact object per line ending in '\n', keys
// among TaskRecord's exact lowercase names, integer literals,
// true/false, and printable-ASCII strings without escapes. At the first
// line in any other form it hands the rest of the body, starting at the
// '\n' that ended the previous record, to a json.Decoder.
//
// The guarantee covers bodies read to their end and bodies cut by a
// read error that every later read repeats, as a failed connection
// does. Until it falls back, Decode waits for the '\n' that ends a
// line (or the end of the body, or a full 4 KiB buffer) before it
// returns the line's first record.
type RecordDecoder struct {
	r      *bufio.Reader
	fast   bool          // a record was decoded on the fast path
	dec    *json.Decoder // set at the first line off the fast path
	capped *cappedReader // the fallback's input
}

// NewRecordDecoder returns a decoder reading from r.
func NewRecordDecoder(r io.Reader) *RecordDecoder {
	return &RecordDecoder{r: bufio.NewReaderSize(r, fastLineBytes)}
}

// Decode stores the next record in *rec, which it zeroes first, and
// returns io.EOF after the last one.
func (d *RecordDecoder) Decode(rec *TaskRecord) error {
	*rec = TaskRecord{}
	if d.dec == nil {
		line, err := d.r.ReadSlice('\n')
		if err == nil && parseRecord(line[:len(line)-1], rec) {
			d.fast = true
			return nil
		}
		if err == io.EOF && len(line) == 0 {
			return io.EOF
		}
		*rec = TaskRecord{}
		// ReadSlice has consumed the line, and the fast path the '\n'
		// ending the previous record; replay both ahead of the rest, so
		// the fallback's offsets start where the previous record ended.
		var replay []byte
		if d.fast {
			replay = append(replay, '\n')
		}
		replay = append(replay, line...)
		d.capped = &cappedReader{r: io.MultiReader(bytes.NewReader(replay), d.r)}
		d.dec = json.NewDecoder(d.capped)
		d.dec.DisallowUnknownFields()
	}
	d.capped.max = d.dec.InputOffset() + MaxRecordBytes
	return d.dec.Decode(rec)
}

// cappedReader passes reads through until its offset reaches max, then
// fails with ErrRecordTooLong.
type cappedReader struct {
	r        io.Reader
	off, max int64
}

func (c *cappedReader) Read(p []byte) (int, error) {
	if c.off >= c.max {
		return 0, ErrRecordTooLong
	}
	if room := c.max - c.off; int64(len(p)) > room {
		p = p[:room]
	}
	n, err := c.r.Read(p)
	c.off += int64(n)
	return n, err
}

// parseRecord parses one fast-path line, without its '\n', into *rec.
// It reports false for a line in any other form, valid JSON or not.
func parseRecord(b []byte, rec *TaskRecord) bool {
	if len(b) < 2 || b[0] != '{' || b[len(b)-1] != '}' {
		return false
	}
	b = b[1 : len(b)-1]
	for len(b) > 0 {
		key, rest, ok := parseString(b)
		if !ok || len(rest) == 0 || rest[0] != ':' {
			return false
		}
		b = rest[1:]
		var s []byte
		switch string(key) {
		case "end":
			rec.End, b, ok = parseBool(b)
		case "id":
			rec.ID, b, ok = parseInt[int](b)
		case "name":
			s, b, ok = parseString(b)
			rec.Name = string(s)
		case "submit":
			rec.Submit, b, ok = parseInt[int64](b)
		case "runtime":
			rec.Runtime, b, ok = parseInt[int64](b)
		case "nodes":
			rec.Nodes, b, ok = parseInt[int](b)
		case "workload":
			s, b, ok = parseString(b)
			rec.Workload = string(s)
		default:
			return false
		}
		if !ok {
			return false
		}
		if len(b) > 0 {
			if b[0] != ',' || len(b) == 1 {
				return false
			}
			b = b[1:]
		}
	}
	return true
}

// parseString splits off the JSON string at the start of b and returns
// its contents, if they are printable ASCII without escapes.
func parseString(b []byte) (s, rest []byte, ok bool) {
	if len(b) == 0 || b[0] != '"' {
		return nil, nil, false
	}
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return b[1:i], b[i+1:], true
		case c < ' ' || c > '~' || c == '\\':
			return nil, nil, false
		}
	}
	return nil, nil, false
}

// parseBool splits off the literal true or false at the start of b.
func parseBool(b []byte) (v bool, rest []byte, ok bool) {
	switch {
	case bytes.HasPrefix(b, []byte("true")):
		return true, b[4:], true
	case bytes.HasPrefix(b, []byte("false")):
		return false, b[5:], true
	}
	return false, nil, false
}

// parseInt splits off the integer literal at the start of b. It takes
// at most 18 digits, so the value fits an int64, and leaves "-0" and
// leading zeros to the fallback.
func parseInt[T int | int64](b []byte) (v T, rest []byte, ok bool) {
	neg := len(b) > 0 && b[0] == '-'
	digits := b
	if neg {
		digits = b[1:]
	}
	n := 0
	for n < len(digits) && '0' <= digits[n] && digits[n] <= '9' {
		n++
	}
	if n == 0 || n > 18 || digits[0] == '0' && (n > 1 || neg) {
		return 0, nil, false
	}
	var x int64
	for _, c := range digits[:n] {
		x = 10*x + int64(c-'0')
	}
	if neg {
		x = -x
	}
	v = T(x)
	return v, digits[n:], int64(v) == x
}
