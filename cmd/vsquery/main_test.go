package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestTypedValue(t *testing.T) {
	cases := []struct {
		raw  string
		want any
	}{
		{"42", int64(42)},
		{"-7", int64(-7)},
		{"true", true},
		{"false", false},
		{"hello", "hello"},
		{"1,2,3", []int64{1, 2, 3}},
		{"1, 2, 3", []int64{1, 2, 3}},
		{"a,b", "a,b"}, // non-numeric list stays a string
	}
	for _, c := range cases {
		if got := typedValue(c.raw); !reflect.DeepEqual(got, c.want) {
			t.Errorf("typedValue(%q) = %#v, want %#v", c.raw, got, c.want)
		}
	}
}

func TestParamFlags(t *testing.T) {
	p := paramFlags{}
	if err := p.Set("id=42"); err != nil {
		t.Fatal(err)
	}
	if err := p.Set("ids=1,2"); err != nil {
		t.Fatal(err)
	}
	if p["id"] != int64(42) {
		t.Fatalf("id = %#v", p["id"])
	}
	if !reflect.DeepEqual(p["ids"], []int64{1, 2}) {
		t.Fatalf("ids = %#v", p["ids"])
	}
	if err := p.Set("malformed"); err == nil {
		t.Fatal("malformed param accepted")
	}
	if p.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		set  []string
		want string // substring of the error; "" = accepted
	}{
		{[]string{"data", "query", "workers", "timing", "timeout", "trace-out", "param"}, ""},
		{[]string{"data", "i"}, ""},
		{[]string{"wire", "query", "json", "dial-timeout", "param"}, ""},
		{[]string{"data", "query", "json"}, "-json"},
		{[]string{"data", "query", "dial-timeout"}, "-dial-timeout"},
		{[]string{"wire", "query", "timeout"}, "-timeout"},
		{[]string{"wire", "query", "workers"}, "-workers"},
		{[]string{"wire", "query", "timing"}, "-timing"},
		{[]string{"wire", "query", "trace-out"}, "-trace-out"},
		{[]string{"wire", "i"}, "-i "},
		{[]string{"wire", "data", "query"}, "-data"},
	}
	for _, c := range cases {
		set := map[string]bool{}
		for _, name := range c.set {
			set[name] = true
		}
		err := checkFlags(set)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("flags %v rejected: %v", c.set, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("flags %v: error %v, want one naming %s", c.set, err, c.want)
		}
	}
}
