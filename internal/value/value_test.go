package value

import (
	"bytes"
	"sort"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{KindNull: "null", KindInt: "int", KindString: "string", Kind(9): "kind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Fatal("Null is not null")
	}
	v := Int(42)
	if v.Kind() != KindInt || v.AsInt() != 42 || v.IsNull() {
		t.Fatalf("Int(42) = %v", v)
	}
	s := Str("hi")
	if s.Kind() != KindString || s.AsString() != "hi" {
		t.Fatalf("Str(hi) = %v", s)
	}
}

func TestAccessorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AsInt on a string did not panic")
		}
	}()
	_ = Str("x").AsInt()
}

func TestEqualsSQL(t *testing.T) {
	if Null.EqualsSQL(Null) {
		t.Error("null = null must be false under SQL semantics")
	}
	if Int(1).EqualsSQL(Null) || Null.EqualsSQL(Int(1)) {
		t.Error("null never equals a non-null")
	}
	if !Int(7).EqualsSQL(Int(7)) {
		t.Error("7 = 7 must hold")
	}
	if Int(7).EqualsSQL(Int(8)) {
		t.Error("7 = 8 must not hold")
	}
	if Int(7).EqualsSQL(Str("7")) {
		t.Error("int 7 must not equal string '7'")
	}
}

func TestCompareTotalOrder(t *testing.T) {
	vals := []Value{Null, Int(-3), Int(0), Int(9), Str(""), Str("a"), Str("ab")}
	for i, a := range vals {
		for j, b := range vals {
			got := a.Compare(b)
			switch {
			case i < j && got >= 0:
				t.Errorf("Compare(%v, %v) = %d, want < 0", a, b, got)
			case i == j && got != 0:
				t.Errorf("Compare(%v, %v) = %d, want 0", a, b, got)
			case i > j && got <= 0:
				t.Errorf("Compare(%v, %v) = %d, want > 0", a, b, got)
			}
		}
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "null"},
		{Int(-5), "-5"},
		{Str("a'b"), "'a''b'"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, v := range []Value{Null, Int(0), Int(-77), Int(123456789), Str("x"), Str("it's")} {
		got, err := Parse(v.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", v.String(), err)
		}
		if got != v {
			t.Errorf("Parse(%q) = %v, want %v", v.String(), got, v)
		}
	}
}

func TestParseForms(t *testing.T) {
	good := map[string]Value{
		"NULL":     Null,
		"  12 ":    Int(12),
		`"quoted"`: Str("quoted"),
		"'single'": Str("single"),
		"-9":       Int(-9),
		"'it''s'":  Str("it's"),
		`""`:       Str(""),
	}
	for in, want := range good {
		got, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("Parse(%q) = %v, want %v", in, got, want)
		}
	}
	for _, in := range []string{"", "abc", "1.5", "'unterminated"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", in)
		}
	}
}

func TestAppendKeyInjective(t *testing.T) {
	// Distinct values must have distinct key encodings; in particular
	// Int and Str with lookalike payloads, and empty string vs null.
	vals := []Value{Null, Int(0), Int(1), Str(""), Str("\x00"), Str("0"), Str("1"), Int(256)}
	seen := map[string]Value{}
	for _, v := range vals {
		k := string(v.AppendKey(nil))
		if prev, dup := seen[k]; dup {
			t.Errorf("values %v and %v share key %q", prev, v, k)
		}
		seen[k] = v
	}
}

func TestCompareConsistentWithEquality(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		return (va.Compare(vb) == 0) == (va == vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64, sa, sb string) bool {
		vals := []Value{Int(a), Int(b), Str(sa), Str(sb)}
		for _, x := range vals {
			for _, y := range vals {
				if x.Compare(y) != -y.Compare(x) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortStability(t *testing.T) {
	vals := []Value{Str("b"), Int(2), Null, Str("a"), Int(1)}
	sort.Slice(vals, func(i, j int) bool { return vals[i].Compare(vals[j]) < 0 })
	want := []Value{Null, Int(1), Int(2), Str("a"), Str("b")}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("sorted[%d] = %v, want %v", i, vals[i], want[i])
		}
	}
}

// FuzzDecodeValue: decoding arbitrary bytes never panics, and whatever
// decodes re-encodes to exactly the bytes it consumed (the encoding is
// canonical, so this is the round-trip property).
func FuzzDecodeValue(f *testing.F) {
	for _, v := range []Value{Null, Int(0), Int(-1), Int(1 << 40), Str(""), Str("ada")} {
		f.Add(v.AppendKey(nil))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		v, rest, err := DecodeValue(b)
		if err != nil {
			return
		}
		if again := v.AppendKey(nil); !bytes.Equal(append(again, rest...), b) {
			t.Fatalf("round trip of %v changed the input:\n in %x\nout %x + rest %x", v, b, again, rest)
		}
	})
}
