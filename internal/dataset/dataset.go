// Package dataset provides the named-column observation container shared by
// the historian, the MSPC pipeline and the CSV tooling: an append-only
// N×M table with variable names, convertible to the mat.Matrix the models
// consume.
package dataset

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"pcsmon/internal/mat"
)

// Package-level sentinel errors.
var (
	// ErrBadInput is returned for malformed rows or headers.
	ErrBadInput = errors.New("dataset: invalid input")
	// ErrEmpty is returned when an operation needs observations.
	ErrEmpty = errors.New("dataset: empty dataset")
)

// Dataset is an append-only table of float64 observations with named
// columns.
type Dataset struct {
	names []string
	rows  [][]float64
}

// New returns an empty dataset with the given column names.
func New(names []string) (*Dataset, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("dataset: no columns: %w", ErrBadInput)
	}
	return &Dataset{names: append([]string(nil), names...)}, nil
}

// Cols returns the number of columns.
func (d *Dataset) Cols() int { return len(d.names) }

// Rows returns the number of observations.
func (d *Dataset) Rows() int { return len(d.rows) }

// Append adds one observation. The row is copied.
func (d *Dataset) Append(row []float64) error {
	if len(row) != len(d.names) {
		return fmt.Errorf("dataset: row len %d != cols %d: %w", len(row), len(d.names), ErrBadInput)
	}
	d.rows = append(d.rows, append([]float64(nil), row...))
	return nil
}

// Row returns a copy of observation i. It panics when out of range, like a
// slice access.
func (d *Dataset) Row(i int) []float64 {
	return append([]float64(nil), d.rows[i]...)
}

// RowView returns observation i without copying; the caller must not
// mutate it.
func (d *Dataset) RowView(i int) []float64 { return d.rows[i] }

// Matrix converts the dataset to a dense matrix (copying the data).
func (d *Dataset) Matrix() (*mat.Matrix, error) {
	if len(d.rows) == 0 {
		return nil, ErrEmpty
	}
	return mat.FromRows(d.rows)
}

// WriteCSV writes the dataset with a header row.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(d.names); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	rec := make([]string, len(d.names))
	for _, row := range d.rows {
		for j, v := range row {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: write row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("dataset: flush: %w", err)
	}
	return nil
}

// ReadCSV parses a dataset written by WriteCSV.
//
// The accepted format is encoding/csv's default dialect restricted to
// numbers: a header record of column names (parsed by encoding/csv, so
// names may be quoted), then one record per line whose fields are
// strconv.ParseFloat numbers, each optionally wrapped in double quotes
// ("1.5"). Lines end in LF or CRLF, blank lines are skipped and the final
// newline is optional. Anything else — a quoted field with escaped quotes,
// commas or newlines, a bare quote, spaces around a number — is not a
// number and is rejected. A row with the wrong field count or a field that
// does not parse returns an error wrapping ErrBadInput that names the
// physical line (the header is line 1); when several lines are bad, the
// first one is reported.
//
// The body is cut into blocks of whole lines that are parsed GOMAXPROCS at
// a time on separate goroutines; the rows of one block share one backing
// array.
func ReadCSV(r io.Reader) (*Dataset, error) {
	// encoding/csv reuses br instead of wrapping it, so after the header
	// record br is positioned at the first body byte.
	br := bufio.NewReader(r)
	cr := csv.NewReader(br)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	d, err := New(header)
	if err != nil {
		return nil, err
	}
	last := len(header) - 1
	line, _ := cr.FieldPos(last)
	line += strings.Count(header[last], "\n") // a quoted name may span lines

	cols := len(header)
	blocks := make([]csvBlock, runtime.GOMAXPROCS(0))
	var carry []byte
	for eof := false; !eof; {
		n := 0
		for ; n < len(blocks) && !eof; n++ {
			b := &blocks[n]
			if b.text, carry, eof, err = nextBlock(br, b.text, carry); err != nil {
				return nil, fmt.Errorf("dataset: read: %w", err)
			}
		}
		parseBlocks(blocks[:n], cols)
		for k := range blocks[:n] {
			b := &blocks[k]
			if b.bad != nil {
				return nil, b.bad.err(line, cols)
			}
			for off := 0; off < len(b.flat); off += cols {
				d.rows = append(d.rows, b.flat[off:off+cols:off+cols])
			}
			line += b.lines
		}
	}
	return d, nil
}

// blockSize is the body text read per parse block. Blocks end on a line
// boundary, so a block holds up to one line more than this.
const blockSize = 256 << 10

// nextBlock refills buf with the carried partial line plus up to
// blockSize more bytes of r, cut after the last newline. It returns the
// block, the cut-off remainder to carry into the next block, and whether r
// is exhausted (then the block runs to the end of input). A line longer
// than a block grows the buffer until its newline arrives.
func nextBlock(r io.Reader, buf, carry []byte) (text, rest []byte, eof bool, err error) {
	buf = append(buf[:0], carry...)
	for {
		if cap(buf)-len(buf) < blockSize {
			buf = append(buf, make([]byte, blockSize)...)[:len(buf)]
		}
		n, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return buf, nil, true, nil
		}
		if err != nil {
			return nil, nil, false, err
		}
		if cut := bytes.LastIndexByte(buf, '\n'); cut >= 0 {
			return buf[:cut+1], buf[cut+1:], false, nil
		}
	}
}

// csvBlock is one run of whole body lines and what parsing made of it.
type csvBlock struct {
	text  []byte    // the lines; the buffer is reused for the next round
	flat  []float64 // parsed rows back to back, freshly allocated per parse
	lines int       // physical lines in text, blank ones included
	bad   *badLine  // first malformed line, or nil
}

// badLine records a malformed body line, located relative to its block.
type badLine struct {
	line   int    // 1-based line within the block
	fields int    // fields found, when the count is wrong
	field  int    // 1-based field that is not a number (0 for a count error)
	text   string // that field's text
}

// err builds the ErrBadInput error for a block whose first line follows
// line prev of the input.
func (b *badLine) err(prev, cols int) error {
	if b.field == 0 {
		return fmt.Errorf("dataset: line %d has %d fields, want %d: %w", prev+b.line, b.fields, cols, ErrBadInput)
	}
	return fmt.Errorf("dataset: line %d field %d %q: %w", prev+b.line, b.field, b.text, ErrBadInput)
}

// parseBlocks parses the blocks concurrently, the last on the calling
// goroutine.
func parseBlocks(blocks []csvBlock, cols int) {
	var wg sync.WaitGroup
	for k := range blocks[:len(blocks)-1] {
		wg.Add(1)
		go func(b *csvBlock) {
			defer wg.Done()
			b.parse(cols)
		}(&blocks[k])
	}
	blocks[len(blocks)-1].parse(cols)
	wg.Wait()
}

// parse converts b.text into b.flat, stopping at the first malformed line.
func (b *csvBlock) parse(cols int) {
	b.flat = make([]float64, 0, (bytes.Count(b.text, []byte{'\n'})+1)*cols)
	b.lines = 0
	b.bad = nil
	for text := b.text; len(text) > 0; {
		line := text
		if i := bytes.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = nil
		}
		b.lines++
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) == 0 {
			continue
		}
		if n := bytes.Count(line, []byte{','}) + 1; n != cols {
			b.bad = &badLine{line: b.lines, fields: n}
			return
		}
		for j := 0; j < cols; j++ {
			field := line
			if i := bytes.IndexByte(line, ','); i >= 0 {
				field, line = line[:i], line[i+1:]
			}
			num := field
			if n := len(num); n >= 2 && num[0] == '"' && num[n-1] == '"' {
				num = num[1 : n-1]
			}
			v, err := strconv.ParseFloat(string(num), 64)
			if err != nil {
				b.bad = &badLine{line: b.lines, field: j + 1, text: string(field)}
				return
			}
			b.flat = append(b.flat, v)
		}
	}
}
