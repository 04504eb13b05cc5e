package traceview

import (
	"strings"
	"testing"
)

// TestParseTraceRejectsNegativeSpans: a complete event with a negative
// start or duration is an error naming the event's index and name, while
// zero-length and instant events still parse.
func TestParseTraceRejectsNegativeSpans(t *testing.T) {
	const ok = `{"name":"a","ph":"X","ts":0,"dur":4,"pid":1,"tid":0}`
	for _, tc := range []struct {
		name, events string
		wantErr      string // "" = must parse
	}{
		{"negative dur", `{"name":"a","ph":"X","ts":5,"dur":-3,"pid":1,"tid":0}`, `event 0 ("a")`},
		{"negative ts", `{"name":"b","ph":"X","ts":-1,"dur":3,"pid":1,"tid":0}`, `event 0 ("b")`},
		{"second event", ok + `,{"name":"c","ph":"X","ts":4,"dur":-1,"pid":1,"tid":0}`, `event 1 ("c")`},
		{"zero dur", `{"name":"d","ph":"X","ts":0,"pid":1,"tid":0}`, ""},
		{"instant", `{"name":"e","ph":"i","ts":3,"pid":1,"tid":0,"s":"t"}`, ""},
		{"valid span", ok, ""},
	} {
		run, err := ParseTrace(strings.NewReader(`{"traceEvents":[` + tc.events + `]}`))
		if tc.wantErr == "" && (err != nil || len(run.Lanes) != 1) {
			t.Errorf("%s: %v, %+v; want one lane", tc.name, err, run)
		}
		if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.wantErr)
		}
	}
}
