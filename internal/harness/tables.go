package harness

import (
	"fmt"
	"strings"

	"failatomic/internal/detect"
)

// Table1Row is one application's statistics (paper Table 1).
type Table1Row struct {
	Name       string
	Lang       string
	Classes    int
	Methods    int
	Injections int
}

// Table1 extracts the per-application statistics.
func Table1(results []*AppResult) []Table1Row {
	rows := make([]Table1Row, 0, len(results))
	for _, r := range results {
		rows = append(rows, Table1Row{
			Name:       r.App.Name,
			Lang:       r.App.Lang,
			Classes:    r.Summary.Classes,
			Methods:    r.Summary.Methods,
			Injections: r.Result.Injections,
		})
	}
	return rows
}

// RenderTable1 prints the statistics in the paper's layout.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: application statistics\n")
	fmt.Fprintf(&b, "%-6s %-14s %9s %9s %12s\n", "Group", "Application", "#Classes", "#Methods", "#Injections")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-6s %-14s %9d %9d %12d\n",
			row.Lang, row.Name, row.Classes, row.Methods, row.Injections)
	}
	return b.String()
}

// FigureRow is one application's three-way percentage split for the
// method/call/class classification figures.
type FigureRow struct {
	Name           string
	AtomicPct      float64
	ConditionalPct float64
	PurePct        float64
}

// MethodFigure builds Figure 2(a)/3(a) (weighted=false: percentage of
// methods defined and used) or Figure 2(b)/3(b) (weighted=true:
// percentage of method calls) for one evaluation group.
func MethodFigure(results []*AppResult, lang string, weighted bool) []FigureRow {
	var rows []FigureRow
	for _, r := range results {
		if lang != "" && r.App.Lang != lang {
			continue
		}
		s := r.Summary
		var row FigureRow
		row.Name = r.App.Name
		if weighted {
			row.AtomicPct = detect.Percent(s.AtomicCalls, s.Calls)
			row.ConditionalPct = detect.Percent(s.ConditionalCalls, s.Calls)
			row.PurePct = detect.Percent(s.PureCalls, s.Calls)
		} else {
			row.AtomicPct = detect.Percent(int64(s.AtomicMethods), int64(s.Methods))
			row.ConditionalPct = detect.Percent(int64(s.ConditionalMethods), int64(s.Methods))
			row.PurePct = detect.Percent(int64(s.PureMethods), int64(s.Methods))
		}
		rows = append(rows, row)
	}
	return rows
}

// ClassFigure builds Figure 4: the per-application distribution of
// failure atomic / conditional / pure failure non-atomic classes.
func ClassFigure(results []*AppResult, lang string) []FigureRow {
	var rows []FigureRow
	for _, r := range results {
		if lang != "" && r.App.Lang != lang {
			continue
		}
		s := r.Summary
		rows = append(rows, FigureRow{
			Name:           r.App.Name,
			AtomicPct:      detect.Percent(int64(s.AtomicClasses), int64(s.Classes)),
			ConditionalPct: detect.Percent(int64(s.ConditionalClasses), int64(s.Classes)),
			PurePct:        detect.Percent(int64(s.PureClasses), int64(s.Classes)),
		})
	}
	return rows
}

// RenderFigure prints a classification figure as a table plus stacked
// ASCII bars (atomic '=', conditional '+', pure '#').
func RenderFigure(title string, rows []FigureRow) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-14s %8s %8s %8s  %s\n", "Application", "atomic%", "cond%", "pure%", "distribution")
	for _, row := range rows {
		bar := stackedBar(row, 40)
		fmt.Fprintf(&b, "%-14s %8.1f %8.1f %8.1f  %s\n",
			row.Name, row.AtomicPct, row.ConditionalPct, row.PurePct, bar)
	}
	b.WriteString("legend: '=' failure atomic, '+' conditional non-atomic, '#' pure non-atomic\n")
	return b.String()
}

func stackedBar(row FigureRow, width int) string {
	atomic := int(row.AtomicPct / 100 * float64(width))
	cond := int(row.ConditionalPct / 100 * float64(width))
	pure := width - atomic - cond
	if pure < 0 {
		pure = 0
	}
	return strings.Repeat("=", atomic) + strings.Repeat("+", cond) + strings.Repeat("#", pure)
}

// MeanPure returns the average pure-non-atomic percentage across rows —
// the paper's "averages 20% in the considered applications" statistic.
func MeanPure(rows []FigureRow) float64 {
	if len(rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.PurePct
	}
	return sum / float64(len(rows))
}

// MaxPure returns the largest pure-non-atomic percentage across rows —
// the paper's "largest percentage of calls to failure non-atomic methods
// ... was less than 0.4%" statistic.
func MaxPure(rows []FigureRow) float64 {
	m := 0.0
	for _, r := range rows {
		if r.PurePct > m {
			m = r.PurePct
		}
	}
	return m
}
