// Package fencefix exercises the fence analyzer against the rows
// TestFenceFixture declares over this package's own objects: one row
// per kind, each spelling of a write, a call through a renamed receiver
// and a method value, and both a declaration and a file allowlist.
package fencefix

import "strings" // want "importrow"

type Stat struct{ Links uint32 }

type Object struct {
	Stat     Stat
	Data     []byte
	Children map[string]int
}

type T struct{ memo map[string]int }

func (t *T) ship() {}

// shipper is the allowed caller; a function literal inside it is inside it.
func (t *T) shipper() {
	t.ship()
	func() { t.ship() }()
}

func (x *T) renamed() { x.ship() } // want "callrow"

func methodValue(t *T) func() { return t.ship } // want "callrow"

func (t *T) walk() int {
	t.memo = nil
	return len(t.memo)
}

func (t *T) peek() int { return len(t.memo) } // want "userow"

func writes(st *Stat, o *Object, n uint32, b []byte) {
	st.Links += 1                 // want "writerow"
	st.Links = n                  // want "writerow"
	o.Stat.Links++                // want "writerow"
	_ = &st.Links                 // want "writerow"
	o.Data[0] = 'x'               // want "writerow"
	copy(o.Data[1:], b)           // want "writerow"
	o.Data = append(o.Data, b...) // want "writerow" "writerow"
	o.Children["a"] = 1           // want "writerow"
	delete(o.Children, "a")       // want "writerow"
}

// reads are not writes.
func reads(st Stat, o *Object) int {
	return int(st.Links) + len(o.Data) + o.Children["a"] + len(strings.TrimSpace(""))
}
