package maporderfix

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Shape 1: the sink sits directly inside the map-range body, so every
// run of the program emits the entries in a different order.
func dumpDirect(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want "iteration order of map m flows into order-sensitive output"
	}
}

// emit is one call away from the writer; the engine's summary carries
// the sink back to the range below.
func emit(w io.Writer, s string) {
	fmt.Fprintln(w, s)
}

func dumpViaHelper(w io.Writer, m map[string]bool) {
	for k := range m {
		emit(w, k) // want "iteration order of map m flows into order-sensitive output"
	}
}

// Shape 2: the accumulator is built in map order and encoded without an
// intervening sort — the snapshot nondeterminism bug.
func encodeUnsorted(w io.Writer, m map[string]int) error {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return json.NewEncoder(w).Encode(keys) // want "keys accumulates entries of map m in iteration order"
}

// Clean: sorting between the loop and the sink clears the taint. This is
// the prescribed fix, so it must stay silent.
func encodeSorted(w io.Writer, m map[string]int) error {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return json.NewEncoder(w).Encode(keys)
}

// Clean: ranging over a slice is deterministic; sinks inside are fine.
func encodeSlice(w io.Writer, xs []string) error {
	var buf bytes.Buffer
	for _, x := range xs {
		buf.WriteString(x)
	}
	return json.NewEncoder(w).Encode(buf.String())
}

// Suppressed: a reasoned ignore on the sink line is honored.
func dumpSuppressed(w io.Writer, m map[string]int) {
	for k := range m {
		//codalint:ignore maporder fixture pin: output order is explicitly not compared here
		fmt.Fprintln(w, k)
	}
}
