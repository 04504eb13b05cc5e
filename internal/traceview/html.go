package traceview

import (
	"bufio"
	"fmt"
	"html"
	"io"
)

// Self-contained HTML report: an inline-SVG timeline/flame view per phase
// lane (no scripts, no external assets — an artifact that renders anywhere,
// including CI artifact viewers), the attribution table, and the critical
// path. Output is deterministic: fixed iteration orders, fixed float
// precision, so the HTML bytes are as diffable as the text report.

const (
	htmlTimelineWidth = 1160.0
	htmlBandHeight    = 20.0
)

// tvColors maps taxonomy categories to fill colors, in render order.
var tvColors = []struct{ tv, color string }{
	{"phase", "#dfe3ec"},
	{"compute", "#4caf7d"},
	{"comm.tile", "#f0a030"},
	{"comm.coll", "#d9534f"},
	{"overhead", "#8888aa"},
	{"untagged", "#bbbbbb"},
}

func tvColor(tv string) string {
	for _, c := range tvColors {
		if c.tv == tv {
			return c.color
		}
	}
	return "#bbbbbb"
}

// WriteHTML renders the run and its report as one self-contained page.
func WriteHTML(w io.Writer, run *Run, rep *Report) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n")
	fmt.Fprint(bw, "<title>mpttrace attribution report</title>\n<style>\n")
	fmt.Fprint(bw, "body{font-family:system-ui,sans-serif;margin:24px;color:#222}\n")
	fmt.Fprint(bw, "h2{margin:28px 0 8px}table{border-collapse:collapse;font-size:13px}\n")
	fmt.Fprint(bw, "td,th{border:1px solid #ccd;padding:3px 8px;text-align:right}\n")
	fmt.Fprint(bw, "td:first-child,th:first-child{text-align:left}\n")
	fmt.Fprint(bw, "tr.total{font-weight:bold;background:#f4f6fa}\n")
	fmt.Fprint(bw, ".legend span{display:inline-block;margin-right:14px;font-size:12px}\n")
	fmt.Fprint(bw, ".legend i{display:inline-block;width:11px;height:11px;margin-right:4px;border:1px solid #888}\n")
	fmt.Fprint(bw, "svg{background:#fafbfd;border:1px solid #ccd}\n")
	fmt.Fprint(bw, "ol.crit{font-size:13px}\n")
	fmt.Fprint(bw, "</style></head><body>\n")
	fmt.Fprint(bw, "<h1>mpttrace attribution report</h1>\n")
	fmt.Fprint(bw, "<p class=\"legend\">")
	for _, c := range tvColors {
		fmt.Fprintf(bw, "<span><i style=\"background:%s\"></i>%s</span>", c.color, html.EscapeString(c.tv))
	}
	fmt.Fprint(bw, "</p>\n")

	for i := range rep.Lanes {
		writeLaneHTML(bw, run, &rep.Lanes[i])
	}

	if len(rep.Processes) > 0 {
		fmt.Fprint(bw, "<h2>other processes</h2>\n<table><tr><th>process</th><th>pid</th><th>lanes</th><th>spans</th><th>instants</th><th>busy cycles</th><th>categories</th></tr>\n")
		for _, p := range rep.Processes {
			fmt.Fprintf(bw, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>",
				html.EscapeString(p.Process), p.PID, p.Lanes, p.Spans, p.Instants, p.BusyCycles)
			for j, c := range p.Categories {
				if j > 0 {
					fmt.Fprint(bw, ", ")
				}
				fmt.Fprintf(bw, "%s: %d spans / %d cycles", html.EscapeString(c.TV), c.Spans, c.Cycles)
			}
			fmt.Fprint(bw, "</td></tr>\n")
		}
		fmt.Fprint(bw, "</table>\n")
	}
	fmt.Fprint(bw, "</body></html>\n")
	return bw.Flush()
}

// writeLaneHTML renders one phase lane: timeline/flame SVG, attribution
// table, critical path.
func writeLaneHTML(bw *bufio.Writer, run *Run, l *LaneReport) {
	fmt.Fprintf(bw, "<h2>lane %s/%s (pid %d tid %d)</h2>\n",
		html.EscapeString(l.Process), html.EscapeString(l.Thread), l.PID, l.TID)

	var lane *Lane
	for i := range run.Lanes {
		if run.Lanes[i].PID == l.PID && run.Lanes[i].TID == l.TID {
			lane = &run.Lanes[i]
			break
		}
	}
	if lane != nil {
		writeTimelineSVG(bw, lane, l)
	}

	fmt.Fprint(bw, "<table><tr><th>layer</th><th>wall cyc</th><th>compute cyc</th><th>comm cyc</th><th>hidden cyc</th><th>idle cyc</th><th>overlap %</th><th>compute %</th><th>comm %</th><th>idle %</th><th>ach/bound</th></tr>\n")
	rows := append([]LayerRow(nil), l.Rows...)
	rows = append(rows, l.Total)
	for _, row := range rows {
		cls := ""
		if row.Layer == "TOTAL" {
			cls = " class=\"total\""
		}
		ratio := "-"
		if row.BoundBytes > 0 {
			ratio = fmt.Sprintf("%.4f", row.BoundRatio)
		}
		fmt.Fprintf(bw, "<tr%s><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%.2f</td><td>%.2f</td><td>%.2f</td><td>%.2f</td><td>%s</td></tr>\n",
			cls, html.EscapeString(row.Layer), row.WallCycles, row.ComputeCycles, row.CommCycles,
			row.HiddenCycles, row.IdleCycles,
			100*row.OverlapFrac, 100*row.ComputeShare, 100*row.CommShare, 100*row.IdleShare, ratio)
	}
	fmt.Fprint(bw, "</table>\n")

	fmt.Fprintf(bw, "<p>critical path: <b>%d cycles</b> over %d spans</p>\n<ol class=\"crit\">\n",
		l.CriticalCycles, len(l.Critical))
	for _, c := range l.Contributors {
		fmt.Fprintf(bw, "<li>%s <i>(%s)</i> — %d cycles, %.2f%%</li>\n",
			html.EscapeString(c.Name), html.EscapeString(c.TV), c.Cycles, 100*c.Share)
	}
	fmt.Fprint(bw, "</ol>\n")
}

// writeTimelineSVG draws the lane as a three-band flame/timeline chart:
// phase roots on top, compute below, communication at the bottom.
// Critical-path members get a dark outline.
func writeTimelineSVG(bw *bufio.Writer, lane *Lane, l *LaneReport) {
	var maxEnd int64 = 1
	for _, s := range lane.Spans {
		if s.End() > maxEnd {
			maxEnd = s.End()
		}
	}
	scale := htmlTimelineWidth / float64(maxEnd)

	onPath := map[string]bool{}
	for _, p := range l.Critical {
		onPath[fmt.Sprintf("%s@%d", p.Name, p.Start)] = true
	}

	// Band rows: 0 = phase roots, 1 = compute, 2 = comm + overhead.
	bandOf := func(s Span) int {
		switch {
		case s.TV == "phase" || (s.TV == "" && s.Parent == ""):
			return 0
		case s.TV == "compute":
			return 1
		default:
			return 2
		}
	}
	height := 3*htmlBandHeight + 24
	fmt.Fprintf(bw, "<svg width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n",
		htmlTimelineWidth, height, htmlTimelineWidth, height)
	for _, s := range lane.Spans {
		x := float64(s.Start) * scale
		w := float64(s.Dur) * scale
		if w < 0.5 {
			w = 0.5
		}
		y := float64(bandOf(s)) * htmlBandHeight
		stroke := "#99a"
		sw := "0.5"
		if onPath[fmt.Sprintf("%s@%d", s.Name, s.Start)] {
			stroke = "#111"
			sw = "1.5"
		}
		tv := s.TV
		if tv == "" {
			tv = "untagged"
		}
		fmt.Fprintf(bw, "<rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" height=\"%.0f\" fill=\"%s\" stroke=\"%s\" stroke-width=\"%s\"><title>%s [%d, %d) %d cycles (%s)</title></rect>\n",
			x, y, w, htmlBandHeight-2, tvColor(tv), stroke, sw,
			html.EscapeString(s.Name), s.Start, s.End(), s.Dur, html.EscapeString(tv))
	}
	fmt.Fprintf(bw, "<text x=\"0\" y=\"%.0f\" font-size=\"11\" fill=\"#556\">0</text>\n", height-8)
	fmt.Fprintf(bw, "<text x=\"%.0f\" y=\"%.0f\" font-size=\"11\" fill=\"#556\" text-anchor=\"end\">%d cycles</text>\n",
		htmlTimelineWidth, height-8, maxEnd)
	fmt.Fprint(bw, "</svg>\n")
}
