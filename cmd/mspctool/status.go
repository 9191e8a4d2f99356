package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"pcsmon"
	"pcsmon/internal/obs"
)

// runStatus implements the status subcommand: fetch a running monitor's
// GET /status document (served by `mspctool fleet -metrics <addr>` or
// `mspctool replay -metrics <addr>`) and render it as a per-unit table.
//
//	mspctool status 127.0.0.1:9101
//	mspctool status -watch 2s 127.0.0.1:9101
//	mspctool status -json 127.0.0.1:9101
func runStatus(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mspctool status", flag.ContinueOnError)
	var (
		raw   = fs.Bool("json", false, "print the raw /status JSON instead of the table")
		watch = fs.Duration("watch", 0, "refresh the table on this cadence until interrupted (0 = print once)")
		n     = fs.Int("n", 0, "with -watch, exit after this many renders (0 = refresh until interrupted)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("exactly one <addr> argument (the -metrics address of a running monitor): %w", pcsmon.ErrBadConfig)
	}
	if *watch < 0 {
		return fmt.Errorf("-watch %v must be >= 0: %w", *watch, pcsmon.ErrBadConfig)
	}
	if *n < 0 {
		return fmt.Errorf("-n %d must be >= 0: %w", *n, pcsmon.ErrBadConfig)
	}
	url := fs.Arg(0)
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + "/status"

	for i := 1; ; i++ {
		w := out
		var frame *strings.Builder
		if *watch > 0 && !*raw {
			// Each watch render is composed off-screen, prefixed by a
			// cursor-home + clear-to-end, and written in one call: the
			// terminal repaints in place instead of scrolling, and the
			// screen is never left half-drawn between fetch and flush.
			frame = &strings.Builder{}
			frame.WriteString(clearScreen)
			w = frame
		}
		if err := printStatus(url, *raw, w); err != nil {
			return err
		}
		if frame != nil {
			if _, err := io.WriteString(out, frame.String()); err != nil {
				return err
			}
		}
		if *watch <= 0 || (*n > 0 && i >= *n) {
			return nil
		}
		time.Sleep(*watch)
	}
}

// clearScreen homes the cursor and clears to the end of the screen; every
// -watch render starts with exactly this sequence, so redraws land on the
// same screen origin (and tests can split the stream into frames on it).
const clearScreen = "\x1b[H\x1b[2J"

func printStatus(url string, raw bool, out io.Writer) error {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("read %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if raw {
		_, err := out.Write(body)
		return err
	}
	var doc obs.StatusDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("%s is not a status document: %w", url, err)
	}
	renderStatus(out, &doc)
	return nil
}

// renderStatus prints the per-unit health table plus the aggregate totals.
func renderStatus(out io.Writer, doc *obs.StatusDoc) {
	fmt.Fprintf(out, "monitor up %s, %d units\n", time.Duration(doc.UptimeSeconds*float64(time.Second)).Round(time.Second), len(doc.Units))
	if len(doc.Units) > 0 {
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "UNIT\tAGE\tOBS\tCTRL D/Q\tPROC D/Q\tLIM D99/Q99\tOVER\tALARMS\tGEN\tHELD\tDROP\tVERDICT")
		for _, u := range doc.Units {
			over := ""
			if u.OverLimit {
				over = "OVER"
			}
			alarms := fmt.Sprintf("%d", u.Alarms)
			if u.AlarmViews != "" {
				alarms += " (" + u.AlarmViews + ")"
			}
			verdict := u.Verdict
			if u.Detached && verdict == "" {
				verdict = "detached"
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f/%.1f\t%.1f/%.1f\t%.1f/%.1f\t%s\t%s\t%d\t%d\t%d\t%s\n",
				u.Unit,
				time.Duration(u.AgeSeconds*float64(time.Second)).Round(time.Second),
				u.Observations,
				u.CtrlD, u.CtrlQ, u.ProcD, u.ProcQ, u.D99, u.Q99,
				over, alarms, u.Generation, u.HeldObs, u.DroppedFr, verdict)
		}
		_ = tw.Flush()
	}
	if len(doc.Totals) > 0 {
		keys := make([]string, 0, len(doc.Totals))
		for k := range doc.Totals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprint(out, "totals:")
		for _, k := range keys {
			v := doc.Totals[k]
			if v == float64(int64(v)) {
				fmt.Fprintf(out, " %s=%d", k, int64(v))
			} else {
				fmt.Fprintf(out, " %s=%.2f", k, v)
			}
		}
		fmt.Fprintln(out)
	}
}
