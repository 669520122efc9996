package main

import (
	"strings"
	"testing"
)

// TestCheck drives the gate over small codec/spec pairs: each way the two
// can drift apart yields exactly one finding that names it.
func TestCheck(t *testing.T) {
	const codec = "const (\n\tFrameVersion = 9\n\tLazySegmentVersion = 10\n)\n\nconst KindManifest = 2\n"
	const spec = "magic \"DSIX\"\n### v9 — the frame\n**Kind 2 — shard manifest.**\n### v10 — the lazy shard segment\n"
	for _, tc := range []struct {
		name, codec, spec string
		want              string // substring of the one finding; "" for none
	}{
		{"agree", codec, spec, ""},
		{"kind block form", strings.Replace(codec, "const KindManifest = 2", "const (\n\tkindOther = 2\n)", 1), spec, ""},
		{"spec describes a kind the codec dropped", codec, spec + "**Kind 0 — full index.**\n", "'**Kind 0' heading"},
		{"codec kind missing from the spec", codec + "const kindFull = 0\n", spec, "kindFull = 0 has no '**Kind 0'"},
		{"spec describes a version the codec dropped", codec, spec + "### v8 — old\n", "'### v8' heading"},
		{"codec version missing from the spec", codec + "const (\n\tNextVersion = 11\n)\n", spec, "NextVersion = 11 has no '### v11'"},
		{"magic not named", codec, strings.Replace(spec, `"DSIX"`, "DSIX", 1), "frame magic"},
	} {
		got := check("codec.go", "FORMAT.md", tc.codec, tc.spec)
		switch {
		case tc.want == "" && len(got) != 0:
			t.Errorf("%s: findings %q, want none", tc.name, got)
		case tc.want != "" && (len(got) != 1 || !strings.Contains(got[0], tc.want)):
			t.Errorf("%s: findings %q, want one containing %q", tc.name, got, tc.want)
		}
	}
}
