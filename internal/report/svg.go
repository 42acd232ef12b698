package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"thermostat/internal/stats"
)

// SVG rendering produces self-contained figure files for the
// footprint-over-time and rate-over-time plots (Figures 3 and 5-10), so the
// regenerated artifacts are directly comparable to the paper's figures.
// Stdlib-only: hand-assembled SVG markup.

// seriesColor cycles through distinguishable stroke colors.
func seriesColor(i int) string {
	palette := [...]string{"#1f6feb", "#d29922", "#2da44e", "#cf222e", "#8250df", "#6e7781"}
	return palette[i%len(palette)]
}

// LinePlot describes one figure.
type LinePlot struct {
	Title  string
	XLabel string
	YLabel string
	// Series share the x-unit (seconds); timestamps are nanoseconds.
	Series []*stats.Series
	// YMax optionally fixes the y-axis top (0 = auto).
	YMax float64
	// HLine optionally draws a horizontal reference line (e.g. the 30K
	// accesses/sec target in Figure 3); 0 = none.
	HLine float64
	// Stacked renders the series as a cumulative stacked area chart (the
	// paper's footprint breakdowns); default is plain lines.
	Stacked bool
}

const (
	plotW, plotH           = 720, 420
	marginL, marginR       = 70, 20
	marginT, marginB       = 40, 50
	innerW                 = plotW - marginL - marginR
	innerH                 = plotH - marginT - marginB
	maxPointsPerSeriesGoal = 400
)

// WriteSVG renders the plot.
func (p *LinePlot) WriteSVG(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="12">`+"\n", plotW, plotH)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")

	// Data extents.
	var xMax float64
	yMax := p.YMax
	for _, s := range p.Series {
		for i, ts := range s.Times {
			x := float64(ts) / 1e9
			if x > xMax {
				xMax = x
			}
			if p.YMax == 0 && !p.Stacked && s.Values[i] > yMax {
				yMax = s.Values[i]
			}
		}
	}
	if p.Stacked && p.YMax == 0 {
		// Stacked height = sum across series at each index.
		n := 0
		for _, s := range p.Series {
			if s.Len() > n {
				n = s.Len()
			}
		}
		for i := 0; i < n; i++ {
			sum := 0.0
			for _, s := range p.Series {
				if i < s.Len() {
					sum += s.Values[i]
				}
			}
			if sum > yMax {
				yMax = sum
			}
		}
	}
	if p.HLine > yMax {
		yMax = p.HLine
	}
	if xMax == 0 {
		xMax = 1
	}
	if yMax == 0 {
		yMax = 1
	}
	yMax *= 1.05

	xPix := func(x float64) float64 { return marginL + x/xMax*float64(innerW) }
	yPix := func(y float64) float64 { return marginT + (1-y/yMax)*float64(innerH) }

	// Axes and gridlines.
	fmt.Fprintf(&b, `<text x="%d" y="20" font-size="14" font-weight="bold">%s</text>`+"\n", marginL, escapeXML(p.Title))
	for i := 0; i <= 4; i++ {
		gy := yMax / 1.05 * float64(i) / 4
		py := yPix(gy)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#eee"/>`+"\n", marginL, py, plotW-marginR, py)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end" fill="#555">%s</text>`+"\n", marginL-6, py+4, compactNum(gy))
		gx := xMax * float64(i) / 4
		px := xPix(gx)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle" fill="#555">%s</text>`+"\n", px, plotH-marginB+18, compactNum(gx))
	}
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`+"\n", marginL, plotH-marginB, plotW-marginR, plotH-marginB)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`+"\n", marginL, marginT, marginL, plotH-marginB)
	fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle" fill="#333">%s</text>`+"\n",
		float64(marginL+innerW/2), plotH-8, escapeXML(p.XLabel))
	fmt.Fprintf(&b, `<text x="14" y="%.1f" text-anchor="middle" fill="#333" transform="rotate(-90 14 %.1f)">%s</text>`+"\n",
		float64(marginT+innerH/2), float64(marginT+innerH/2), escapeXML(p.YLabel))

	// Reference line.
	if p.HLine > 0 {
		py := yPix(p.HLine)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#cf222e" stroke-dasharray="6,4"/>`+"\n",
			marginL, py, plotW-marginR, py)
	}

	// Series.
	base := make([]float64, 0)
	if p.Stacked {
		n := 0
		for _, s := range p.Series {
			if s.Len() > n {
				n = s.Len()
			}
		}
		base = make([]float64, n)
	}
	for si, s := range p.Series {
		color := seriesColor(si)
		step := 1
		if s.Len() > maxPointsPerSeriesGoal {
			step = s.Len() / maxPointsPerSeriesGoal
		}
		if p.Stacked {
			// Area from base to base+value.
			var top, bottom []string
			for i := 0; i < s.Len(); i += step {
				x := xPix(float64(s.Times[i]) / 1e9)
				top = append(top, fmt.Sprintf("%.1f,%.1f", x, yPix(base[i]+s.Values[i])))
				bottom = append(bottom, fmt.Sprintf("%.1f,%.1f", x, yPix(base[i])))
			}
			for i, j := 0, len(bottom)-1; i < j; i, j = i+1, j-1 {
				bottom[i], bottom[j] = bottom[j], bottom[i]
			}
			pts := strings.Join(append(top, bottom...), " ")
			fmt.Fprintf(&b, `<polygon points="%s" fill="%s" fill-opacity="0.65" stroke="%s"/>`+"\n", pts, color, color)
			for i := 0; i < s.Len(); i++ {
				base[i] += s.Values[i]
			}
		} else {
			var pts []string
			for i := 0; i < s.Len(); i += step {
				pts = append(pts, fmt.Sprintf("%.1f,%.1f",
					xPix(float64(s.Times[i])/1e9), yPix(s.Values[i])))
			}
			fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.8"/>`+"\n",
				strings.Join(pts, " "), color)
		}
		// Legend.
		lx := marginL + 10
		ly := marginT + 16 + 16*si
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="12" height="12" fill="%s"/>`+"\n", lx, ly-10, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d">%s</text>`+"\n", lx+16, ly, escapeXML(s.Name))
	}

	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// ScatterPlot renders x/y points (Figure 2).
type ScatterPlot struct {
	Title  string
	XLabel string
	YLabel string
	X, Y   []float64
}

// WriteSVG renders the scatter.
func (p *ScatterPlot) WriteSVG(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="12">`+"\n", plotW, plotH)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	var xMax, yMax float64
	for i := range p.X {
		xMax = math.Max(xMax, p.X[i])
		yMax = math.Max(yMax, p.Y[i])
	}
	if xMax == 0 {
		xMax = 1
	}
	if yMax == 0 {
		yMax = 1
	}
	xMax *= 1.05
	yMax *= 1.05
	xPix := func(x float64) float64 { return marginL + x/xMax*float64(innerW) }
	yPix := func(y float64) float64 { return marginT + (1-y/yMax)*float64(innerH) }
	fmt.Fprintf(&b, `<text x="%d" y="20" font-size="14" font-weight="bold">%s</text>`+"\n", marginL, escapeXML(p.Title))
	for i := 0; i <= 4; i++ {
		gy := yMax / 1.05 * float64(i) / 4
		py := yPix(gy)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#eee"/>`+"\n", marginL, py, plotW-marginR, py)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end" fill="#555">%s</text>`+"\n", marginL-6, py+4, compactNum(gy))
		gx := xMax / 1.05 * float64(i) / 4
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle" fill="#555">%s</text>`+"\n", xPix(gx), plotH-marginB+18, compactNum(gx))
	}
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`+"\n", marginL, plotH-marginB, plotW-marginR, plotH-marginB)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`+"\n", marginL, marginT, marginL, plotH-marginB)
	fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle" fill="#333">%s</text>`+"\n",
		float64(marginL+innerW/2), plotH-8, escapeXML(p.XLabel))
	fmt.Fprintf(&b, `<text x="14" y="%.1f" text-anchor="middle" fill="#333" transform="rotate(-90 14 %.1f)">%s</text>`+"\n",
		float64(marginT+innerH/2), float64(marginT+innerH/2), escapeXML(p.YLabel))
	for i := range p.X {
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3" fill="#1f6feb" fill-opacity="0.55"/>`+"\n",
			xPix(p.X[i]), yPix(p.Y[i]))
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// BarPlot renders labeled bars (Figures 1 and 11).
type BarPlot struct {
	Title  string
	YLabel string
	Labels []string
	// Groups: one value per label per group (grouped bars); single group
	// for Figure 1.
	Groups     [][]float64
	GroupNames []string
}

// WriteSVG renders the bars.
func (p *BarPlot) WriteSVG(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="12">`+"\n", plotW, plotH)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	yMax := 0.0
	for _, g := range p.Groups {
		for _, v := range g {
			yMax = math.Max(yMax, v)
		}
	}
	if yMax == 0 {
		yMax = 1
	}
	yMax *= 1.1
	yPix := func(y float64) float64 { return marginT + (1-y/yMax)*float64(innerH) }
	fmt.Fprintf(&b, `<text x="%d" y="20" font-size="14" font-weight="bold">%s</text>`+"\n", marginL, escapeXML(p.Title))
	for i := 0; i <= 4; i++ {
		gy := yMax / 1.1 * float64(i) / 4
		py := yPix(gy)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#eee"/>`+"\n", marginL, py, plotW-marginR, py)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end" fill="#555">%s</text>`+"\n", marginL-6, py+4, compactNum(gy))
	}
	n := len(p.Labels)
	if n == 0 {
		n = 1
	}
	slot := float64(innerW) / float64(n)
	ng := len(p.Groups)
	if ng == 0 {
		ng = 1
	}
	barW := slot * 0.7 / float64(ng)
	for li, label := range p.Labels {
		x0 := float64(marginL) + slot*float64(li) + slot*0.15
		for gi, g := range p.Groups {
			if li >= len(g) {
				continue
			}
			color := seriesColor(gi)
			x := x0 + barW*float64(gi)
			y := yPix(g[li])
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
				x, y, barW, float64(plotH-marginB)-y, color)
		}
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle" fill="#333" font-size="10">%s</text>`+"\n",
			x0+slot*0.35, plotH-marginB+16, escapeXML(shorten(label, 14)))
	}
	for gi, name := range p.GroupNames {
		color := seriesColor(gi)
		lx := plotW - marginR - 150
		ly := marginT + 16 + 16*gi
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="12" height="12" fill="%s"/>`+"\n", lx, ly-10, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d">%s</text>`+"\n", lx+16, ly, escapeXML(name))
	}
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`+"\n", marginL, plotH-marginB, plotW-marginR, plotH-marginB)
	fmt.Fprintf(&b, `<text x="14" y="%.1f" text-anchor="middle" fill="#333" transform="rotate(-90 14 %.1f)">%s</text>`+"\n",
		float64(marginT+innerH/2), float64(marginT+innerH/2), escapeXML(p.YLabel))
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func escapeXML(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

func shorten(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func compactNum(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	case v == math.Trunc(v):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
