package codafs

import (
	"testing"
	"testing/quick"
)

func TestSplitPath(t *testing.T) {
	cases := []struct {
		in      string
		vol     string
		comps   []string
		wantErr bool
	}{
		{"/coda/usr/hqb/papers/s15.bib", "usr", []string{"hqb", "papers", "s15.bib"}, false},
		{"/coda/project", "project", nil, false},
		{"/coda/project/", "project", nil, false},
		{"/coda/a//b/../c", "a", []string{"c"}, false},
		{"/coda", "", nil, true},
		{"/tmp/x", "", nil, true},
		{"relative", "", nil, true},
		{"/codav/f", "", nil, true},
		{"/coda-old/x", "", nil, true},
	}
	for _, c := range cases {
		vol, comps, err := SplitPath(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("SplitPath(%q) err = %v, wantErr=%v", c.in, err, c.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if vol != c.vol {
			t.Errorf("SplitPath(%q) vol = %q, want %q", c.in, vol, c.vol)
		}
		if len(comps) != len(c.comps) {
			t.Errorf("SplitPath(%q) comps = %v, want %v", c.in, comps, c.comps)
			continue
		}
		for i := range comps {
			if comps[i] != c.comps[i] {
				t.Errorf("SplitPath(%q) comps = %v, want %v", c.in, comps, c.comps)
				break
			}
		}
	}
}

func TestJoinSplitRoundTrip(t *testing.T) {
	f := func(volRaw string, compsRaw []string) bool {
		vol := sanitize(volRaw)
		if vol == "" {
			return true
		}
		var comps []string
		for _, c := range compsRaw {
			if s := sanitize(c); s != "" {
				comps = append(comps, s)
			}
		}
		p := JoinPath(vol, comps...)
		gotVol, gotComps, err := SplitPath(p)
		if err != nil || gotVol != vol || len(gotComps) != len(comps) {
			return false
		}
		for i := range comps {
			if gotComps[i] != comps[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// sanitize maps arbitrary strings onto valid path components.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			out = append(out, r)
		}
	}
	if len(out) > 20 {
		out = out[:20]
	}
	return string(out)
}

func TestValidName(t *testing.T) {
	for name, want := range map[string]bool{
		"file.c": true, "a": true, "": false, ".": false, "..": false, "a/b": false,
	} {
		if got := ValidName(name); got != want {
			t.Errorf("ValidName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestObjectClone(t *testing.T) {
	o := &Object{
		Status:   Status{FID: FID{1, 2, 3}, Type: Directory},
		Children: map[string]FID{"x": {1, 4, 5}},
	}
	c := o.Clone()
	c.Children["y"] = FID{1, 6, 7}
	if _, ok := o.Children["y"]; ok {
		t.Error("Clone shares Children map")
	}

	f := &Object{Status: Status{Type: File}, Data: []byte{1, 2, 3}}
	cf := f.Clone()
	if &cf.Data[0] != &f.Data[0] {
		t.Error("Clone copied contents, which are immutable and meant to be shared")
	}
	cf.Data = []byte{99}
	if len(f.Data) != 3 || f.Data[0] != 1 {
		t.Error("replacing the clone's contents changed the original's")
	}
}

func TestChildNamesSorted(t *testing.T) {
	o := &Object{Children: map[string]FID{"c": {}, "a": {}, "b": {}}}
	names := o.ChildNames()
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Errorf("ChildNames = %v", names)
	}
}

func TestFIDString(t *testing.T) {
	f := FID{Volume: 7, Vnode: 12, Unique: 99}
	if f.String() != "7.12.99" {
		t.Errorf("String = %q", f.String())
	}
	if f.IsZero() {
		t.Error("non-zero FID reported zero")
	}
	if !(FID{}).IsZero() {
		t.Error("zero FID not reported zero")
	}
}

func TestObjTypeString(t *testing.T) {
	if File.String() != "file" || Directory.String() != "directory" || Symlink.String() != "symlink" {
		t.Error("ObjType strings wrong")
	}
}
