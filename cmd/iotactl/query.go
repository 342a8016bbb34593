package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/tippers/tippers/internal/httpapi"
)

// This file implements `iotactl query`: a one-shot statement runner
// and a psql-flavored REPL over POST /v1/query. Every statement runs
// as the identity given by -service/-purpose/-user, and the node's
// enforcement layer shapes the result — the footer's released/denied
// counts make the shaping visible.

// runQueryOnce executes a single statement and renders it.
func runQueryOnce(ctx context.Context, client *httpapi.Client, req httpapi.QueryRequestDTO, stmt string, out io.Writer) error {
	req.SQL = stmt
	res, err := client.Query(ctx, req)
	if err != nil {
		return err
	}
	renderResult(out, res)
	return nil
}

// runQueryREPL reads statements from in until EOF or \q. Statements
// may span lines and end with ';'. Backslash commands: \timing
// toggles per-statement wall time, \q quits.
func runQueryREPL(ctx context.Context, client *httpapi.Client, req httpapi.QueryRequestDTO, in io.Reader, out io.Writer) error {
	fmt.Fprintln(out, `enforced SQL shell — end statements with ';', \timing toggles timing, \q quits`)
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var buf strings.Builder
	timing := false
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Fprint(out, "tippers> ")
		} else {
			fmt.Fprint(out, "      -> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			switch trimmed {
			case `\q`, `\quit`:
				return nil
			case `\timing`:
				timing = !timing
				fmt.Fprintf(out, "timing %s\n", map[bool]string{true: "on", false: "off"}[timing])
			default:
				fmt.Fprintf(out, "unknown command %s (try \\timing or \\q)\n", trimmed)
			}
			prompt()
			continue
		}
		if buf.Len() > 0 {
			buf.WriteByte('\n')
		}
		buf.WriteString(line)
		if !strings.HasSuffix(strings.TrimSpace(buf.String()), ";") {
			if strings.TrimSpace(buf.String()) == "" {
				buf.Reset()
			}
			prompt()
			continue
		}
		stmt := buf.String()
		buf.Reset()
		req.SQL = stmt
		started := time.Now()
		res, err := client.Query(ctx, req)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
		} else {
			renderResult(out, res)
			if timing {
				fmt.Fprintf(out, "Time: %.3f ms\n", float64(time.Since(started).Microseconds())/1000)
			}
		}
		prompt()
	}
	fmt.Fprintln(out)
	return scanner.Err()
}

// renderResult prints an aligned table plus an enforcement footer.
func renderResult(out io.Writer, res httpapi.QueryResultDTO) {
	cells := make([][]string, 0, len(res.Rows))
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = len(c)
	}
	for _, row := range res.Rows {
		r := make([]string, len(res.Columns))
		for i := range res.Columns {
			var s string
			if i < len(row) {
				s = renderCell(row[i])
			}
			r[i] = s
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
		cells = append(cells, r)
	}
	writeRow := func(vals []string) {
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = fmt.Sprintf(" %-*s ", widths[i], v)
		}
		fmt.Fprintf(out, "%s\n", strings.Join(parts, "|"))
	}
	writeRow(res.Columns)
	seps := make([]string, len(res.Columns))
	for i, w := range widths {
		seps[i] = strings.Repeat("-", w+2)
	}
	fmt.Fprintln(out, strings.Join(seps, "+"))
	for _, r := range cells {
		writeRow(r)
	}
	st := res.Stats
	source := ""
	if st.UsedRollup {
		source = fmt.Sprintf("; rollup, %d cells", st.RollupCells)
	}
	fmt.Fprintf(out, "(%d rows; scanned %d, denied %d, suppressed %d group(s), k=%d%s)\n",
		len(res.Rows), st.ScannedRows, st.DeniedRows, st.SuppressedGroups, st.EffectiveK, source)
	if res.Trace != nil && res.Trace.TraceID != "" {
		fmt.Fprintf(out, "trace: %s\n", res.Trace.TraceID)
	}
}

// renderCell formats one JSON result cell for the table.
func renderCell(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case float64:
		if x == float64(int64(x)) {
			return fmt.Sprintf("%d", int64(x))
		}
		return fmt.Sprintf("%g", x)
	case bool:
		return fmt.Sprintf("%v", x)
	case string:
		return x
	default:
		return fmt.Sprintf("%v", x)
	}
}
