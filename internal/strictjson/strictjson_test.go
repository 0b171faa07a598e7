package strictjson

import (
	"strings"
	"testing"
)

func TestDecode(t *testing.T) {
	type doc struct {
		Name string `json:"name"`
	}
	for _, tc := range []struct {
		in   string
		want string // "" means an error is expected
	}{
		{`{"name":"a"}`, "a"},
		{" \n\t{\"name\":\"a\"}\n\n ", "a"},
		{`{"name":"a"} {"name":"b"}`, ""},
		{`{"name":"a"}]]]`, ""},
		{`{"name":"a"} junk`, ""},
		{`{"name":"a"},`, ""},
		{`{"nmae":"a"}`, ""},
		{`{"name":`, ""},
		{``, ""},
	} {
		var d doc
		err := Decode(strings.NewReader(tc.in), &d)
		if tc.want == "" {
			if err == nil {
				t.Errorf("Decode(%q) accepted", tc.in)
			}
			continue
		}
		if err != nil || d.Name != tc.want {
			t.Errorf("Decode(%q) = %+v, %v; want name %q", tc.in, d, err, tc.want)
		}
	}
}
