package fault

import (
	"reflect"
	"strings"
	"testing"
)

// formatWindow renders a window in ParseSchedule's syntax with every
// suffix spelled out only when it differs from the default.
func formatWindow(w Window) string {
	var b strings.Builder
	b.WriteString(w.Start.String())
	if w.Loss {
		b.WriteByte('~')
	} else {
		b.WriteByte('+')
	}
	b.WriteString(w.Duration.String())
	if w.Dir != Both {
		b.WriteString("/" + w.Dir.String())
	}
	switch w.Path {
	case PathPrimary:
		b.WriteString("@p1")
	case PathSecondary:
		b.WriteString("@p2")
	}
	return b.String()
}

// FuzzParseSchedule: the parser must never panic; every accepted window
// must satisfy the documented bounds, and the schedule must re-parse to
// the same windows through the canonical form.
func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []string{
		"45s+2s", "20s~60ms", "45s+2s,90s+500ms/down ,120s+1s/up",
		"45s+2s@p1", "10s~50ms@p2/up", "1m+1s/both@p1", "0s+1ns",
		"", ",", " , ", ",,", "@p1", "/up", "45s+2s@p1@p2", "45s+2s/up/down",
		"45s", "-1s+2s", "1s+0s", "1s~-1s", "1h+9223372036854775807ns",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ws, err := ParseSchedule(spec)
		if err != nil {
			return
		}
		if len(ws) == 0 && strings.Trim(spec, " \t\n\v\f\r\u0085 ,") != "" {
			t.Fatalf("accepted %q as an empty schedule", spec)
		}
		parts := make([]string, len(ws))
		for i, w := range ws {
			if w.Start < 0 || w.Duration <= 0 || w.End() <= w.Start || w.Dir < Both || w.Dir > Downlink || w.Path < PathAll || w.Path > PathSecondary {
				t.Fatalf("accepted out-of-range window %+v from %q", w, spec)
			}
			parts[i] = formatWindow(w)
		}
		canon := strings.Join(parts, ",")
		again, err := ParseSchedule(canon)
		if err != nil || !reflect.DeepEqual(again, ws) {
			t.Fatalf("canonical %q of %q does not round-trip: %+v, %v", canon, spec, again, err)
		}
	})
}
