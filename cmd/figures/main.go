// Command figures regenerates the paper's evaluation figures as text
// tables.
//
// Usage:
//
//	figures            # all figures
//	figures -only fig15,fig17
//	figures -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mptwino/internal/figures"
)

func main() {
	only := flag.String("only", "", "comma-separated ids (table1-table4, fig01,fig06,fig07,fig12,fig14,fig15,fig16,fig17,fig18, noc)")
	list := flag.Bool("list", false, "list available figure ids and exit")
	flag.Parse()

	if err := run(os.Stdout, *only, *list); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(2)
	}
}

// run writes the figure index (list) or the figures the -only list names
// to w, building only the figures it prints.
func run(w io.Writer, only string, list bool) error {
	if list {
		for _, e := range figures.Catalog() {
			r := e.Build()
			fmt.Fprintf(w, "%-6s %s\n", r.ID, r.Title)
		}
		return nil
	}
	es, err := selectFigures(figures.Catalog(), only)
	if err != nil {
		return err
	}
	for _, e := range es {
		fmt.Fprint(w, figures.Render(e.Build()))
	}
	return nil
}

// selectFigures returns the entries of cat that the -only list names, in
// catalog order; an empty list selects every entry. An id that names no
// figure is an error, so a typo prints nothing instead of a partial set.
func selectFigures(cat []figures.Entry, only string) ([]figures.Entry, error) {
	if only == "" {
		return cat, nil
	}
	known := map[string]bool{}
	for _, e := range cat {
		known[e.ID] = true
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		id = strings.TrimSpace(id)
		if !known[id] {
			return nil, fmt.Errorf("unknown figure id %q in -only (see -list)", id)
		}
		want[id] = true
	}
	var out []figures.Entry
	for _, e := range cat {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}
