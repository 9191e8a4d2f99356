// Package dataset provides the named-column observation container shared by
// the historian, the MSPC pipeline and the CSV tooling — an append-only
// N×M table with variable names — and the module's CSV parsing. ScanCSV
// streams a numeric CSV file through a pipeline: a reader goroutine cuts
// the body into blocks of whole lines, each block is parsed on its own
// goroutine, and the caller's row callback runs over the parsed blocks in
// file order while later blocks are still being parsed. ReadCSV builds a
// table from the same pipeline. ParseNumber, which both use per field and
// the streaming CSV readers of cmd/mspctool use too, converts a number
// exactly as strconv.ParseFloat does, on a fast path for plain decimals.
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
)

// ErrBadInput is returned for malformed rows or headers.
var ErrBadInput = errors.New("dataset: invalid input")

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

// ReadCSV parses a dataset written by WriteCSV, in the format ScanCSV
// reads. The rows of one parse block share one backing array.
func ReadCSV(r io.Reader) (*Dataset, error) {
	var rows [][]float64
	names, err := scanCSV(r, true, func(row []float64) error {
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	d, err := New(names)
	if err != nil {
		return nil, err
	}
	d.rows = rows
	return d, nil
}

// ScanCSV reads CSV text and calls row for every body record, in file
// order, without retaining the records; it returns the header's column
// names. The slice passed to row is reused once row returns, so a caller
// that keeps a row must copy it. An error from row ends the scan and is
// returned unwrapped.
//
// The accepted format is encoding/csv's default dialect restricted to
// numbers: a header record of column names (parsed by encoding/csv, so
// names may be quoted), then one record per line whose fields are
// strconv.ParseFloat numbers (converted by ParseNumber, bit for bit the
// same), each optionally wrapped in double quotes ("1.5"). Lines end in LF
// or CRLF, blank lines are skipped and the final newline is optional.
// Anything else — a quoted field with escaped quotes, commas or newlines, a
// bare quote, spaces around a number — is not a number and is rejected. A
// row with the wrong field count or a field that does not parse returns an
// error wrapping ErrBadInput that names the physical line (the header is
// line 1); when several lines are bad, the first one is reported, after
// row has seen every record before the block that holds it. A read error
// is reported the same way, after the records before it.
//
// The body runs through a pipeline. A reader goroutine cuts it into blocks
// of whole lines, drawn from a ring of GOMAXPROCS+1 buffers; each block is
// parsed on a goroutine of its own; and row runs on the calling goroutine
// over the blocks in file order, each as soon as it is parsed, while the
// blocks behind it are still being read and parsed. Every goroutine has
// ended when ScanCSV returns.
func ScanCSV(r io.Reader, row func([]float64) error) ([]string, error) {
	return scanCSV(r, false, row)
}

// scanCSV is ScanCSV; with keep set, every block is parsed into a freshly
// allocated array, so the rows passed to row stay valid.
func scanCSV(r io.Reader, keep bool, row func([]float64) error) ([]string, error) {
	// encoding/csv reuses br instead of wrapping it, so after the header
	// record br is positioned at the first body byte.
	br := bufio.NewReader(r)
	cr := csv.NewReader(br)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	last := len(header) - 1
	line, _ := cr.FieldPos(last)
	line += strings.Count(header[last], "\n") // a quoted name may span lines

	cols := len(header)
	ring := make([]csvBlock, runtime.GOMAXPROCS(0)+1)
	free := make(chan *csvBlock, len(ring))
	for k := range ring {
		ring[k].parsed = make(chan struct{}, 1)
		free <- &ring[k]
	}
	// Both channels hold the whole ring, so no send on them blocks.
	ready := make(chan *csvBlock, len(ring))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(ready)
		cutBlocks(br, cols, free, ready, stop, &wg)
	}()
	for b := range ready {
		if b.readErr != nil {
			return nil, fmt.Errorf("dataset: read: %w", b.readErr)
		}
		<-b.parsed
		if b.bad != nil {
			return nil, b.bad.err(line, cols)
		}
		for off := 0; off < len(b.flat); off += cols {
			if err := row(b.flat[off : off+cols : off+cols]); err != nil {
				return nil, err
			}
		}
		line += b.lines
		if keep {
			b.flat = nil
		}
		free <- b
	}
	return header, nil
}

// cutBlocks is the pipeline's reader: it fills blocks from free with the
// body of r in file order, starts a parse goroutine (counted in wg) for
// each, and queues it on ready, until r is exhausted, a read fails (the
// block then carries the error and is not parsed) or stop is closed.
func cutBlocks(r io.Reader, cols int, free <-chan *csvBlock, ready chan<- *csvBlock, stop <-chan struct{}, wg *sync.WaitGroup) {
	var carry []byte
	for eof := false; !eof; {
		var b *csvBlock
		select {
		case b = <-free:
		case <-stop:
			return
		}
		b.text, carry, eof, b.readErr = nextBlock(r, b.text, carry)
		if b.readErr != nil {
			ready <- b
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.parse(cols)
			b.parsed <- struct{}{}
		}()
		ready <- b
	}
}

// blockSize is the body text read per parse block. Blocks end on a line
// boundary, so a block holds up to one line more than this.
const blockSize = 256 << 10

// nextBlock refills buf with the carried partial line plus up to
// blockSize more bytes of r, cut after the last newline. It returns the
// block, the cut-off remainder to carry into the next block, and whether r
// is exhausted (then the block runs to the end of input). A line longer
// than a block grows the buffer until its newline arrives. carry may lie
// in buf itself: the copy to its front moves it.
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
	text    []byte        // the lines; the buffer is reused for a later block
	flat    []float64     // parsed rows back to back; reused unless rows are kept
	lines   int           // physical lines in text, blank ones included
	bad     *badLine      // first malformed line, or nil
	readErr error         // the read error that ended the input here; text is then not parsed
	parsed  chan struct{} // receives once the parse of text is done
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

// parse converts b.text into b.flat, stopping at the first malformed line.
func (b *csvBlock) parse(cols int) {
	if need := (bytes.Count(b.text, []byte{'\n'}) + 1) * cols; cap(b.flat) < need {
		b.flat = make([]float64, 0, need)
	}
	b.flat = b.flat[:0]
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
			// A plain decimal converts as its comma comes up; any other
			// field is cut at its comma and parsed whole.
			v, n, ok := parseDecimal(line)
			if !ok || n < len(line) && line[n] != ',' {
				if n = bytes.IndexByte(line, ','); n < 0 {
					n = len(line)
				}
				field := line[:n]
				num := field
				if k := len(num); k >= 2 && num[0] == '"' && num[k-1] == '"' {
					num = num[1 : k-1]
				}
				var err error
				if v, err = ParseNumber(num); err != nil {
					b.bad = &badLine{line: b.lines, field: j + 1, text: string(field)}
					return
				}
			}
			b.flat = append(b.flat, v)
			line = line[min(n+1, len(line)):]
		}
	}
}
