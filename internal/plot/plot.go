// Package plot renders the paper's figure types — control charts (Fig. 1),
// time series (Fig. 3) and oMEDA bar plots (Figs. 4, 5) — as plain-text
// panels for terminals and logs, and as standalone SVG documents for
// reports. Only the standard library is used.
package plot

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Package-level sentinel errors.
var (
	// ErrBadInput is returned for empty or malformed series.
	ErrBadInput = errors.New("plot: invalid input")
)

// ASCIIChart renders a series as a fixed-size text panel with optional
// horizontal limit lines (e.g. the 95 %/99 % control limits).
//
// Limits are drawn with '-' (and labelled on the right); series points with
// '*'. The y-axis is annotated with min/max.
func ASCIIChart(title string, series []float64, limits map[string]float64, width, height int) (string, error) {
	if len(series) == 0 {
		return "", fmt.Errorf("plot: empty series: %w", ErrBadInput)
	}
	if width < 16 || height < 4 {
		return "", fmt.Errorf("plot: panel %dx%d too small: %w", width, height, ErrBadInput)
	}
	lo, hi := series[0], series[0]
	for _, v := range series {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	for _, v := range limits {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi == lo {
		hi = lo + 1
	}
	pad := 0.05 * (hi - lo)
	lo -= pad
	hi += pad

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	rowOf := func(v float64) int {
		frac := (v - lo) / (hi - lo)
		r := int(math.Round(float64(height-1) * (1 - frac)))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}
	// Limit lines first, so data overwrites them.
	labels := make(map[int]string, len(limits))
	for name, v := range limits {
		r := rowOf(v)
		for c := 0; c < width; c++ {
			grid[r][c] = '-'
		}
		labels[r] = name
	}
	// Downsample the series to the panel width.
	for c := 0; c < width; c++ {
		idx := c * (len(series) - 1) / max(width-1, 1)
		grid[rowOf(series[idx])][c] = '*'
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%10.4g ┤%s\n", hi, "")
	for r := 0; r < height; r++ {
		label := ""
		if name, ok := labels[r]; ok {
			label = " ← " + name
		}
		fmt.Fprintf(&b, "%10s │%s%s\n", "", string(grid[r]), label)
	}
	fmt.Fprintf(&b, "%10.4g ┼%s\n", lo, strings.Repeat("─", width))
	fmt.Fprintf(&b, "%10s  n=%d\n", "", len(series))
	return b.String(), nil
}

// ASCIIBars renders an oMEDA-style signed bar plot: one row per variable,
// bars extending left (negative) or right (positive) from a central zero
// axis. Only the topN variables by |value| are labelled individually; use
// topN ≤ 0 to label all.
func ASCIIBars(title string, names []string, values []float64, width int) (string, error) {
	if len(values) == 0 || len(names) != len(values) {
		return "", fmt.Errorf("plot: %d names for %d values: %w", len(names), len(values), ErrBadInput)
	}
	if width < 21 {
		return "", fmt.Errorf("plot: width %d too small: %w", width, ErrBadInput)
	}
	var maxAbs float64
	for _, v := range values {
		maxAbs = math.Max(maxAbs, math.Abs(v))
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	half := (width - 1) / 2
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (max |bar| = %.4g)\n", title, maxAbs)
	for i, v := range values {
		n := int(math.Round(math.Abs(v) / maxAbs * float64(half)))
		var left, right string
		if v < 0 {
			left = strings.Repeat(" ", half-n) + strings.Repeat("█", n)
			right = strings.Repeat(" ", half)
		} else {
			left = strings.Repeat(" ", half)
			right = strings.Repeat("█", n) + strings.Repeat(" ", half-n)
		}
		fmt.Fprintf(&b, "%-10s %s|%s %9.4g\n", names[i], left, right, v)
	}
	return b.String(), nil
}

// ASCIITimeSeries renders one or more aligned series as separate panels
// sharing a caption — the Fig. 3 layout (XMEAS(1) under IDV(6) vs under the
// XMV(3) attack).
func ASCIITimeSeries(caption string, panels map[string][]float64, width, height int) (string, error) {
	if len(panels) == 0 {
		return "", fmt.Errorf("plot: no panels: %w", ErrBadInput)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", caption)
	for name, series := range panels {
		s, err := ASCIIChart(name, series, nil, width, height)
		if err != nil {
			return "", err
		}
		b.WriteString(s)
		b.WriteString("\n")
	}
	return b.String(), nil
}

// SVGChart renders a series with limit lines as a standalone SVG document.
func SVGChart(title string, series []float64, limits map[string]float64, width, height int) (string, error) {
	if len(series) == 0 {
		return "", fmt.Errorf("plot: empty series: %w", ErrBadInput)
	}
	if width < 100 || height < 60 {
		return "", fmt.Errorf("plot: svg %dx%d too small: %w", width, height, ErrBadInput)
	}
	lo, hi := series[0], series[0]
	for _, v := range series {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	for _, v := range limits {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi == lo {
		hi = lo + 1
	}
	pad := 0.05 * (hi - lo)
	lo -= pad
	hi += pad
	const margin = 40.0
	w, h := float64(width), float64(height)
	x := func(i int) float64 {
		return margin + (w-2*margin)*float64(i)/float64(max(len(series)-1, 1))
	}
	y := func(v float64) float64 {
		return h - margin - (h-2*margin)*(v-lo)/(hi-lo)
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", width, height, width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="%g" y="20" font-family="sans-serif" font-size="14">%s</text>`+"\n", margin, xmlEscape(title))
	// Axes.
	fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n", margin, h-margin, w-margin, h-margin)
	fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n", margin, margin, margin, h-margin)
	// Limits.
	for name, v := range limits {
		fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="red" stroke-dasharray="6,4"/>`+"\n",
			margin, y(v), w-margin, y(v))
		fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="10" fill="red">%s</text>`+"\n",
			w-margin+4, y(v)+3, xmlEscape(name))
	}
	// Poly-line through the series.
	var pts strings.Builder
	for i, v := range series {
		fmt.Fprintf(&pts, "%.1f,%.1f ", x(i), y(v))
	}
	fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="steelblue" stroke-width="1"/>`+"\n", strings.TrimSpace(pts.String()))
	// Y-axis labels.
	fmt.Fprintf(&b, `<text x="2" y="%g" font-family="sans-serif" font-size="10">%.4g</text>`+"\n", y(hi)+3, hi)
	fmt.Fprintf(&b, `<text x="2" y="%g" font-family="sans-serif" font-size="10">%.4g</text>`+"\n", y(lo)+3, lo)
	b.WriteString("</svg>\n")
	return b.String(), nil
}

// SVGBars renders an oMEDA-style signed bar plot as a standalone SVG.
func SVGBars(title string, names []string, values []float64, width, height int) (string, error) {
	if len(values) == 0 || len(names) != len(values) {
		return "", fmt.Errorf("plot: %d names for %d values: %w", len(names), len(values), ErrBadInput)
	}
	if width < 100 || height < 60 {
		return "", fmt.Errorf("plot: svg %dx%d too small: %w", width, height, ErrBadInput)
	}
	var maxAbs float64
	for _, v := range values {
		maxAbs = math.Max(maxAbs, math.Abs(v))
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	const margin = 40.0
	w, h := float64(width), float64(height)
	mid := h - margin - (h-2*margin)/2
	barW := (w - 2*margin) / float64(len(values))
	scale := (h - 2*margin) / 2 / maxAbs
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", width, height, width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="%g" y="20" font-family="sans-serif" font-size="14">%s</text>`+"\n", margin, xmlEscape(title))
	fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n", margin, mid, w-margin, mid)
	// Label the largest bar.
	bestIdx, bestAbs := 0, 0.0
	for i, v := range values {
		x0 := margin + barW*float64(i)
		hgt := math.Abs(v) * scale
		y0 := mid - hgt
		if v < 0 {
			y0 = mid
		}
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
			x0+1, y0, math.Max(barW-2, 1), hgt, barColor(v))
		if math.Abs(v) > bestAbs {
			bestAbs = math.Abs(v)
			bestIdx = i
		}
	}
	x0 := margin + barW*float64(bestIdx)
	fmt.Fprintf(&b, `<text x="%.1f" y="%g" font-family="sans-serif" font-size="10">%s</text>`+"\n",
		x0, margin-4, xmlEscape(names[bestIdx]))
	b.WriteString("</svg>\n")
	return b.String(), nil
}

func barColor(v float64) string {
	if v < 0 {
		return "indianred"
	}
	return "steelblue"
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
