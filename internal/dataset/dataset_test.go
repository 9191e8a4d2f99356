package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("no columns: want ErrBadInput, got %v", err)
	}
}

func TestAppendAndAccessors(t *testing.T) {
	d, err := New([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := d.Append([]float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if d.Rows() != 2 || d.Cols() != 2 {
		t.Fatalf("dims %dx%d", d.Rows(), d.Cols())
	}
	if err := d.Append([]float64{1}); !errors.Is(err, ErrBadInput) {
		t.Errorf("short row: want ErrBadInput, got %v", err)
	}
	row := d.Row(1)
	row[0] = 99
	if d.RowView(1)[0] != 3 {
		t.Error("Row returned aliasing slice")
	}
}

func TestAppendCopiesRow(t *testing.T) {
	d, _ := New([]string{"a"})
	src := []float64{7}
	if err := d.Append(src); err != nil {
		t.Fatal(err)
	}
	src[0] = 99
	if d.RowView(0)[0] != 7 {
		t.Error("Append aliased caller slice")
	}
}

func TestNamesCopied(t *testing.T) {
	names := []string{"a", "b"}
	d, _ := New(names)
	names[0] = "zzz"
	if d.names[0] != "a" {
		t.Error("New aliased names slice")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d, _ := New([]string{"x", "y", "z"})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		_ = d.Append([]float64{rng.NormFloat64() * 1e6, rng.Float64(), float64(i)})
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows() != d.Rows() || back.Cols() != d.Cols() {
		t.Fatalf("dims %dx%d vs %dx%d", back.Rows(), back.Cols(), d.Rows(), d.Cols())
	}
	for i := 0; i < d.Rows(); i++ {
		for j := 0; j < d.Cols(); j++ {
			if d.RowView(i)[j] != back.RowView(i)[j] {
				t.Fatalf("(%d,%d): %g vs %g", i, j, d.RowView(i)[j], back.RowView(i)[j])
			}
		}
	}
	if back.names[2] != "z" {
		t.Error("names lost in round trip")
	}
}

func TestCSVRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(2))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cols := 1 + rng.Intn(5)
		names := make([]string, cols)
		for j := range names {
			names[j] = string(rune('a' + j))
		}
		d, err := New(names)
		if err != nil {
			return false
		}
		rows := rng.Intn(30)
		for i := 0; i < rows; i++ {
			row := make([]float64, cols)
			for j := range row {
				row[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)-4))
			}
			if err := d.Append(row); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			return false
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		if back.Rows() != rows {
			return false
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if d.RowView(i)[j] != back.RowView(i)[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1,notanumber\n")); !errors.Is(err, ErrBadInput) {
		t.Errorf("bad number: want ErrBadInput, got %v", err)
	}
	// Header-only file is a valid empty dataset.
	d, err := ReadCSV(strings.NewReader("a,b\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows() != 0 || d.Cols() != 2 {
		t.Errorf("header-only: %dx%d", d.Rows(), d.Cols())
	}
	// A row with the wrong field count is a malformed row: ErrBadInput,
	// naming the physical line and both counts.
	for _, c := range []struct{ in, want string }{
		{"a,b\n1,2\n3\n", "dataset: line 3 has 1 fields, want 2"},
		{"a,b\n1,2\n3,4,5\n", "dataset: line 3 has 3 fields, want 2"},
		{"a,b\n\n1,2\r\n\n3,4,5", "dataset: line 5 has 3 fields, want 2"},
	} {
		_, err := ReadCSV(strings.NewReader(c.in))
		if !errors.Is(err, ErrBadInput) || !strings.Contains(fmt.Sprint(err), c.want) {
			t.Errorf("%q: err = %v, want ErrBadInput with %q", c.in, err, c.want)
		}
	}
}

// refReadCSV is the encoding/csv + strconv.ParseFloat reader ReadCSV
// replaced, kept as the oracle for what the format accepts.
func refReadCSV(in string) (names []string, rows [][]float64, err error) {
	cr := csv.NewReader(strings.NewReader(in))
	names, err = cr.Read()
	if err != nil {
		return nil, nil, err
	}
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return names, rows, nil
		}
		if err != nil {
			return nil, nil, err
		}
		row := make([]float64, len(rec))
		for j, s := range rec {
			if row[j], err = strconv.ParseFloat(s, 64); err != nil {
				return nil, nil, err
			}
		}
		rows = append(rows, row)
	}
}

// checkMatchesReference requires ReadCSV to accept in exactly when the
// reference reader does, and then to return the same names and the same
// values bit for bit.
func checkMatchesReference(t *testing.T, in string) {
	t.Helper()
	names, rows, refErr := refReadCSV(in)
	d, err := ReadCSV(strings.NewReader(in))
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%.80q: ReadCSV err = %v, reference err = %v", in, err, refErr)
	}
	if err != nil {
		return
	}
	if got := d.names; !reflect.DeepEqual(got, names) {
		t.Fatalf("%.80q: names %q, reference %q", in, got, names)
	}
	if d.Rows() != len(rows) {
		t.Fatalf("%.80q: %d rows, reference %d", in, d.Rows(), len(rows))
	}
	for i, want := range rows {
		got := d.RowView(i)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%.80q: (%d,%d) = %v, reference %v", in, i, j, got[j], want[j])
			}
		}
	}
}

// paperCSV renders rows of the paper's 53 variables the way WriteCSV does,
// so a few thousand rows span several parse blocks.
func paperCSV(rng *rand.Rand, rows int, eol string) string {
	var sb strings.Builder
	for j := 0; j < 53; j++ {
		if j > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "v%d", j+1)
	}
	sb.WriteString(eol)
	for i := 0; i < rows; i++ {
		for j := 0; j < 53; j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		sb.WriteString(eol)
	}
	return sb.String()
}

// TestReadCSVMatchesReference pins the block-parallel reader against the
// encoding/csv reference on the shapes the format allows, with one block
// per round (the carried partial line then moves within one buffer) and
// with several.
func TestReadCSVMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(3))
	big := paperCSV(rng, 3000, "\n")
	if len(big) < 3*blockSize {
		t.Fatalf("test input %d bytes spans fewer than 3 blocks", len(big))
	}
	for name, in := range map[string]string{
		"several blocks":                      big,
		"several blocks, CRLF":                paperCSV(rng, 3000, "\r\n"),
		"no trailing newline":                 strings.TrimSuffix(big, "\n"),
		"CRLF, no trailing newline, final CR": "a,b\r\n1,2\r\n3,4\r",
		"blank lines":                         "\n\na,b\n\n1,2\n\r\n\n3,4\n\n\n",
		"quoted numbers":                      "a,\"b\"\n\"1.5\",2\n3,\"-4e-3\"\n",
		"quoted header over two lines":        "\"a\nx\",b\n1,2\n",
		"header only":                         "a,b,c\n",
		"header only, no newline":             "a,b,c",
		"special values":                      "a,b\nNaN,+Inf\n-Inf,0x1p-2\n",
	} {
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			t.Run(fmt.Sprintf("%s/procs=%d", name, procs), func(t *testing.T) { checkMatchesReference(t, in) })
		}
	}
}

// TestReadCSVReportsEarliestBadLine plants bad lines in different blocks
// of one parallel round and in later rounds: the error must name the
// first one, whichever block finishes first.
func TestReadCSVReportsEarliestBadLine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // several blocks per round even on one CPU
	rng := rand.New(rand.NewSource(4))
	lines := strings.SplitAfter(paperCSV(rng, 3000, "\n"), "\n")
	for _, bad := range [][]int{{2900, 1500, 600}, {2500}, {1200, 2999}} {
		in := append([]string(nil), lines...)
		first := len(in)
		for _, l := range bad {
			in[l-1] = "1,2,x\n" // physical line l
			if l < first {
				first = l
			}
		}
		_, err := ReadCSV(strings.NewReader(strings.Join(in, "")))
		want := fmt.Sprintf("dataset: line %d has 3 fields, want 53", first)
		if !errors.Is(err, ErrBadInput) || !strings.Contains(fmt.Sprint(err), want) {
			t.Errorf("bad lines %v: err = %v, want %q", bad, err, want)
		}
	}
	in := append([]string(nil), lines...)
	in[1799] = "1,\"2\"x" + strings.Repeat(",1", 51) + "\n"
	_, err := ReadCSV(strings.NewReader(strings.Join(in, "")))
	if !errors.Is(err, ErrBadInput) || !strings.Contains(fmt.Sprint(err), "dataset: line 1800 field 2") {
		t.Errorf("bad field on line 1800: err = %v", err)
	}
}

// TestScanCSVStreamsRowsInOrder: ScanCSV hands row every record of a
// multi-block file in file order — the rows ReadCSV keeps, bit for bit —
// and an error from row ends the scan at once and comes back unwrapped.
func TestScanCSVStreamsRowsInOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(5))
	in := paperCSV(rng, 3000, "\n")
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		want, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		names, err := ScanCSV(strings.NewReader(in), func(row []float64) error {
			for j, v := range want.RowView(i) {
				if math.Float64bits(row[j]) != math.Float64bits(v) {
					t.Fatalf("procs %d: row %d col %d = %v, ReadCSV %v", procs, i, j, row[j], v)
				}
			}
			i++
			return nil
		})
		if err != nil || !reflect.DeepEqual(names, want.names) || i != want.Rows() {
			t.Fatalf("procs %d: %d rows, names %q, err %v; want %d rows, names %q", procs, i, names, err, want.Rows(), want.names)
		}
		stop := errors.New("stop")
		calls := 0
		_, err = ScanCSV(strings.NewReader(in), func([]float64) error {
			calls++
			if calls == 1000 {
				return stop
			}
			return nil
		})
		if err != stop || calls != 1000 {
			t.Errorf("procs %d: row error: err %v after %d calls, want the error itself after 1000", procs, err, calls)
		}
	}
}

// FuzzReadCSV pins ReadCSV to the encoding/csv + ParseFloat reference: it
// must accept an input exactly when the reference does, and then return
// the same names and values.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		"a,b\n1,2\n3,4\n",
		"a,b\r\n1,2\r\n\r\n3,4",
		"a,b\n\"1\",\"2\"\n",
		"\"a\"\"\",b\n1,2\n",
		"a,b\n1,2\n3\n",
		"a,b\n1,\"2\n3\"\n",
		"a\n1\r\r\n",
		"a\nNaN\n\n \n",
		"a,b\n1,2,\n",
		"a,b\n\"1,2\"\n",
		"a\n\"\"\n",
		"a\n1\"\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		checkMatchesReference(t, in)
	})
}

// failingReader serves its text up to limit bytes, then fails.
type failingReader struct {
	text  string
	limit int
	err   error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.limit == 0 {
		return 0, r.err
	}
	n := copy(p, r.text[:min(len(r.text), r.limit)])
	r.text, r.limit = r.text[n:], r.limit-n
	return n, nil
}

// TestScanCSVEarlyReturnsJoinGoroutines: on each early return of ScanCSV —
// an error from row at row 1000, a bad line in the third block, a reader
// that fails partway through the file — the error comes back as promised
// and no goroutine of the pipeline is left running.
func TestScanCSVEarlyReturnsJoinGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(6))
	in := paperCSV(rng, 3000, "\n")
	lines := strings.SplitAfter(in, "\n")
	// bad is the 0-based index of the line 2.5 blocks into the body, and
	// the body lines before it that end at least a line short of two
	// blocks are surely in the first two blocks.
	bad, off, longest, inTwo := 1, 0, 0, 0
	for ; off < 5*blockSize/2; bad++ {
		off += len(lines[bad])
		longest = max(longest, len(lines[bad]))
	}
	for l, end := 1, len(lines[1]); end <= 2*blockSize-longest; l, end = l+1, end+len(lines[l+1]) {
		inTwo++
	}
	lines[bad] = "1,2,x\n" // physical line bad+1
	badIn := strings.Join(lines, "")
	stop := errors.New("stop")
	broken := errors.New("broken pipe")
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range []struct {
			name   string
			r      io.Reader
			stopAt int
			check  func(err error, rows int) bool
		}{
			{"row error", strings.NewReader(in), 1000, func(err error, rows int) bool {
				return err == stop && rows == 1000
			}},
			{"bad line in the third block", strings.NewReader(badIn), 0, func(err error, rows int) bool {
				want := fmt.Sprintf("dataset: line %d has 3 fields, want 53", bad+1)
				return errors.Is(err, ErrBadInput) && strings.Contains(fmt.Sprint(err), want) &&
					rows >= inTwo && rows < bad
			}},
			{"failing reader", &failingReader{text: in, limit: 5 * blockSize, err: broken}, 0, func(err error, rows int) bool {
				return errors.Is(err, broken) && rows > 0 && rows < 3000
			}},
		} {
			base := runtime.NumGoroutine()
			rows := 0
			_, err := ScanCSV(c.r, func([]float64) error {
				if rows++; rows == c.stopAt {
					return stop
				}
				return nil
			})
			if !c.check(err, rows) {
				t.Errorf("procs %d, %s: err %v after %d rows", procs, c.name, err, rows)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("procs %d, %s: %d goroutines left running, %d before the scan", procs, c.name, n, base)
			}
		}
	}
}
