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
	"os"
	"strings"

	"mptwino/internal/figures"
)

func main() {
	only := flag.String("only", "", "comma-separated ids (table1-table4, fig01,fig06,fig07,fig12,fig14,fig15,fig16,fig17,fig18, noc)")
	list := flag.Bool("list", false, "list available figure ids and exit")
	flag.Parse()

	all := figures.All()
	if *list {
		for _, r := range all {
			fmt.Printf("%-6s %s\n", r.ID, r.Title)
		}
		return
	}
	rs, err := selectFigures(all, *only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(2)
	}
	for _, r := range rs {
		fmt.Print(figures.Render(r))
	}
}

// selectFigures returns the figures of all that the -only list names, in
// all's order; an empty list selects every figure. An id that names no
// figure is an error, so a typo prints nothing instead of a partial set.
func selectFigures(all []figures.Result, only string) ([]figures.Result, error) {
	if only == "" {
		return all, nil
	}
	known := map[string]bool{}
	for _, r := range all {
		known[r.ID] = true
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		id = strings.TrimSpace(id)
		if !known[id] {
			return nil, fmt.Errorf("unknown figure id %q in -only (see -list)", id)
		}
		want[id] = true
	}
	var out []figures.Result
	for _, r := range all {
		if want[r.ID] {
			out = append(out, r)
		}
	}
	return out, nil
}
