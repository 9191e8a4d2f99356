package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"pcsmon/internal/historian"
)

// sseEvent is one event of the service's /events stream.
type sseEvent struct {
	Type string          `json:"type"`
	Unit string          `json:"unit"`
	Data json.RawMessage `json:"data"`
}

// sseReader splits a text/event-stream body into events. Comment lines
// (": heartbeat dropped=N") report the subscriber's drop count.
type sseReader struct {
	sc      *bufio.Scanner
	Dropped uint64
}

func newSSEReader(r io.Reader) *sseReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	return &sseReader{sc: sc}
}

// Next returns the next event; io.EOF ends the stream.
func (s *sseReader) Next() (sseEvent, error) {
	var typ, data string
	for s.sc.Scan() {
		line := s.sc.Text()
		switch {
		case line == "":
			if data == "" {
				continue
			}
			var ev sseEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return sseEvent{}, fmt.Errorf("sse: bad data %q: %w", data, err)
			}
			if ev.Type != typ {
				return sseEvent{}, fmt.Errorf("sse: event line %q disagrees with payload type %q", typ, ev.Type)
			}
			return ev, nil
		case strings.HasPrefix(line, ":"):
			if rest, ok := strings.CutPrefix(line, ": heartbeat dropped="); ok {
				if n, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64); err == nil {
					s.Dropped = n
				}
			}
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	// serve closes its ops listener right after the drain that ends the
	// stream, which can cut the chunked response short: the stream still
	// ended, and a missing verdict shows up in the oracle.
	if err := s.sc.Err(); err != nil && !errors.Is(err, io.ErrUnexpectedEOF) {
		return sseEvent{}, err
	}
	return sseEvent{}, io.EOF
}

// unitReport is a verdict as the service reports it and as the reference
// computes it: the three fields the oracle compares.
type unitReport struct {
	Unit        string `json:"unit"`
	Verdict     string `json:"verdict"`
	AttackedVar int    `json:"attacked_var"`
	Explanation string `json:"explanation"`
}

// scoredIndex extracts the observation index of a "scored" event.
func scoredIndex(data json.RawMessage) (int, error) {
	var s struct{ Index *int }
	if err := json.Unmarshal(data, &s); err != nil {
		return 0, err
	}
	if s.Index == nil {
		return 0, fmt.Errorf("scored event without Index: %s", data)
	}
	return *s.Index, nil
}

// pairDrop is the payload of a "pair-dropped" event.
type pairDrop struct {
	Unit uint8
	Seq  uint64
	Kind string
	Span uint64
	Held bool
}

// promSample is one sample line of a Prometheus text exposition.
type promSample struct {
	Name   string
	Labels string
	Value  float64
}

// parseProm reads a Prometheus text exposition into its samples.
func parseProm(r io.Reader) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: value in %q: %w", line, err)
		}
		name, labels := line[:i], ""
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name, labels = name[:j], strings.TrimSuffix(name[j+1:], "}")
		}
		out = append(out, promSample{Name: name, Labels: labels, Value: v})
	}
	return out, sc.Err()
}

// promSum adds up every sample of one metric name (all label sets).
func promSum(samples []promSample, name string) (float64, bool) {
	sum, found := 0.0, false
	for _, s := range samples {
		if s.Name == name {
			sum += s.Value
			found = true
		}
	}
	return sum, found
}

// promMax is the largest sample of one metric name across label sets.
func promMax(samples []promSample, name string) (float64, bool) {
	best, found := 0.0, false
	for _, s := range samples {
		if s.Name == name && (!found || s.Value > best) {
			best, found = s.Value, true
		}
	}
	return best, found
}

// statusDoc is the part of GET /status the benchmark reads.
type statusDoc struct {
	Totals map[string]float64 `json:"totals"`
}

// varIndex maps a historian variable name ("XMV(3)") back to its column.
func varIndex(name string) (int, error) {
	for j := 0; j < historian.NumVars; j++ {
		if historian.VarName(j) == name {
			return j, nil
		}
	}
	return -1, fmt.Errorf("unknown variable %q", name)
}

// replayOutput is what the benchmark reads from mspctool replay's stdout.
type replayOutput struct {
	Reports map[string]unitReport
	Samples map[string]int
	// Frames and Observations come from the closing "replay:" line.
	Frames, Observations int
	// Pairing is the pairing summary's counts in print order: frames,
	// paired, orphaned, orphaned sensor, orphaned actuator, gap obs, dup,
	// stale, outlier, view stalls.
	Pairing []int
}

// parseReplayReports reads the per-plant report block of a replay run:
//
//	plant unit-007: integrity-attack after 1000 observations (channel XMV(3))
//	  <explanation>
//
// plus the pairing summary and the closing totals line.
func parseReplayReports(r io.Reader) (*replayOutput, error) {
	out := &replayOutput{Reports: map[string]unitReport{}, Samples: map[string]int{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var pending *unitReport
	for sc.Scan() {
		line := sc.Text()
		if pending != nil {
			if !strings.HasPrefix(line, "  ") {
				return nil, fmt.Errorf("replay: report of %s has no explanation line", pending.Unit)
			}
			pending.Explanation = strings.TrimPrefix(line, "  ")
			out.Reports[pending.Unit] = *pending
			pending = nil
			continue
		}
		switch {
		case strings.HasPrefix(line, "plant ") && strings.Contains(line, " observations"):
			rep, n, err := parsePlantLine(line)
			if err != nil {
				return nil, err
			}
			out.Samples[rep.Unit] = n
			pending = &rep
		case strings.HasPrefix(line, "replay: "):
			if _, err := fmt.Sscanf(line, "replay: %d frames", &out.Frames); err != nil {
				return nil, fmt.Errorf("replay: summary %q: %w", line, err)
			}
			i := strings.Index(line, " plants, ")
			if i < 0 {
				return nil, fmt.Errorf("replay: summary %q has no observation count", line)
			}
			if _, err := fmt.Sscanf(line[i:], " plants, %d observations", &out.Observations); err != nil {
				return nil, fmt.Errorf("replay: summary %q: %w", line, err)
			}
		case strings.HasPrefix(line, "pairing: "):
			out.Pairing = leadingInts(line)
			if len(out.Pairing) < 10 {
				return nil, fmt.Errorf("replay: pairing summary %q", line)
			}
		}
	}
	if pending != nil {
		return nil, fmt.Errorf("replay: report of %s has no explanation line", pending.Unit)
	}
	return out, sc.Err()
}

// parsePlantLine parses "plant <id>: <verdict> after <n> observations[ (channel <var>)]".
func parsePlantLine(line string) (unitReport, int, error) {
	rest := strings.TrimPrefix(line, "plant ")
	id, rest, ok := strings.Cut(rest, ": ")
	if !ok {
		return unitReport{}, 0, fmt.Errorf("replay: plant line %q", line)
	}
	verdict, rest, ok := strings.Cut(rest, " after ")
	if !ok {
		return unitReport{}, 0, fmt.Errorf("replay: plant line %q", line)
	}
	countStr, rest, ok := strings.Cut(rest, " observations")
	if !ok {
		return unitReport{}, 0, fmt.Errorf("replay: plant line %q", line)
	}
	n, err := strconv.Atoi(countStr)
	if err != nil {
		return unitReport{}, 0, fmt.Errorf("replay: plant line %q: %w", line, err)
	}
	rep := unitReport{Unit: id, Verdict: verdict, AttackedVar: -1}
	if ch, ok := strings.CutPrefix(rest, " (channel "); ok {
		j, err := varIndex(strings.TrimSuffix(ch, ")"))
		if err != nil {
			return unitReport{}, 0, fmt.Errorf("replay: plant line %q: %w", line, err)
		}
		rep.AttackedVar = j
	}
	return rep, n, nil
}

// parseScoredLine parses a replay "-every" line: "[unit-007] obs    123  ctrl D=...".
func parseScoredLine(line string) (unit string, index int, ok bool) {
	if !strings.HasPrefix(line, "[") {
		return "", 0, false
	}
	id, rest, found := strings.Cut(line[1:], "] obs ")
	if !found {
		return "", 0, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil {
		return "", 0, false
	}
	return id, n, true
}

// serveUnitSamples reads serve's "unit <id>: <verdict> after <n> observations"
// lines (one per unit at drain).
func serveUnitSamples(lines []string) map[string]int {
	out := map[string]int{}
	for _, line := range lines {
		rest, ok := strings.CutPrefix(line, "unit ")
		if !ok {
			continue
		}
		id, rest, ok := strings.Cut(rest, ": ")
		if !ok {
			continue
		}
		_, rest, ok = strings.Cut(rest, " after ")
		if !ok {
			continue
		}
		countStr, _, ok := strings.Cut(rest, " observations")
		if !ok {
			continue
		}
		if n, err := strconv.Atoi(countStr); err == nil {
			out[id] = n
		}
	}
	return out
}

// leadingInts returns every integer token of a line, in order ("(2"
// and "3)" count; "0.00%" does not).
func leadingInts(line string) []int {
	var out []int
	for _, f := range strings.Fields(line) {
		if n, err := strconv.Atoi(strings.Trim(f, "(),")); err == nil {
			out = append(out, n)
		}
	}
	return out
}
