package wire

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/messages.golden")

// TestMessageBytesGolden pins the bytes of every roundTripCases message,
// not only their sizes: a change here is a protocol change. Regenerate
// with: go test ./internal/wire -run Golden -update
func TestMessageBytesGolden(t *testing.T) {
	const path = "testdata/messages.golden"
	var b strings.Builder
	for _, c := range roundTripCases {
		buf, err := Encode(c.in)
		if err != nil {
			t.Fatalf("%s: Encode: %v", c.name, err)
		}
		fmt.Fprintf(&b, "%s\t%s\n", c.name, hex.EncodeToString(buf))
	}
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d encodings, %s has %d", len(got)-1, path, len(wantLines)-1)
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("encoding differs from %s:\n got %s\nwant %s", path, got[i], wantLines[i])
		}
	}
}
