package main

import (
	"maps"
	"testing"
)

// TestParseTenantQuotas: every entry must be tenant=quota with a positive
// integer quota; the first bad entry is named in the error.
func TestParseTenantQuotas(t *testing.T) {
	cases := []struct {
		spec string
		want map[string]int
		err  string
	}{
		{spec: "", want: nil},
		{spec: "a=1,b=8", want: map[string]int{"a": 1, "b": 8}},
		{spec: "a=0", err: `bad -tenant-quotas entry "a=0" (want tenant=quota)`},
		{spec: "a", err: `bad -tenant-quotas entry "a" (want tenant=quota)`},
		{spec: "a=x", err: `bad -tenant-quotas entry "a=x" (want tenant=quota)`},
		{spec: "a=-1", err: `bad -tenant-quotas entry "a=-1" (want tenant=quota)`},
		{spec: "a=2,b", err: `bad -tenant-quotas entry "b" (want tenant=quota)`},
	}
	for _, c := range cases {
		got, err := parseTenantQuotas(c.spec)
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Fatalf("%q: err = %v, want %q", c.spec, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%q: %v", c.spec, err)
		}
		if !maps.Equal(got, c.want) {
			t.Fatalf("%q: got %v, want %v", c.spec, got, c.want)
		}
	}
}
