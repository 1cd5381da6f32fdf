package telemetry

import (
	"strings"
	"testing"
)

// FuzzParseTraceparent feeds arbitrary strings to the traceparent parser. It
// never panics; an accepted value is a valid context that survives a
// render-and-parse round trip. Parsed values are compared rather than
// strings, because rendering normalises the version and flag bytes.
func FuzzParseTraceparent(f *testing.F) {
	valid := TraceContext{TraceHi: 0xa1b2, TraceLo: 0xc3d4, SpanID: 0xe5f6, Sampled: true}.Traceparent()
	for _, v := range []string{
		valid,
		TraceContext{TraceHi: 0xdeadbeef, TraceLo: 0xcafe, SpanID: 0x1234}.Traceparent(),
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-03",
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		strings.Repeat("0", 55),
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		tc, ok := ParseTraceparent(v)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("rejected %q but returned %+v", v, tc)
			}
			return
		}
		if !tc.Valid() {
			t.Fatalf("%q parsed to invalid context %+v", v, tc)
		}
		back, ok := ParseTraceparent(tc.Traceparent())
		if !ok || back != tc {
			t.Fatalf("%q: round trip of %+v gave (%+v, %v)", v, tc, back, ok)
		}
	})
}
