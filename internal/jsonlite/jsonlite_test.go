package jsonlite

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestAppendStringMatchesStock pins AppendString byte-identical to
// encoding/json over escapes, HTML characters, control bytes, invalid
// UTF-8, and the U+2028/U+2029 JavaScript hazards.
func TestAppendStringMatchesStock(t *testing.T) {
	cases := []string{
		"", "plain", `qu"ote\back`, "a<b>&c", "tab\tnl\ncr\rbs\bff\f",
		"ctl\x00\x01\x1f", "unicode ☃ 日本語", "bad\xffutf8\xfe",
		"line sep ", "� already",
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%q: stock marshal: %v", s, err)
		}
		got := AppendString(nil, s)
		if string(got) != string(want) {
			t.Fatalf("%q: AppendString = %s, stock = %s", s, got, want)
		}
	}
}

// TestAppendFloatMatchesStock pins the float formatting (including the
// exponent-form thresholds and the e-09 -> e-9 trim) against encoding/json,
// and the non-finite error behaviour.
func TestAppendFloatMatchesStock(t *testing.T) {
	cases := []float64{
		0, 1, -1, 0.25, -36.22464037281123, 1e-6, 9.999e-7, 1e21,
		9.999e20, 3.009118605852871e-8, 2.1855305259276428e21,
		math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		cases = append(cases, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
	}
	for _, f := range cases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("%v: stock marshal: %v", f, err)
		}
		got, err := AppendFloat(nil, f)
		if err != nil {
			t.Fatalf("%v: AppendFloat: %v", f, err)
		}
		if string(got) != string(want) {
			t.Fatalf("%v: AppendFloat = %s, stock = %s", f, got, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendFloat(nil, bad); err == nil {
			t.Fatalf("AppendFloat accepted %v", bad)
		}
	}
}

// TestSkipValueSpans pins SkipValue's span extraction over every JSON kind,
// nesting, and strings containing brackets.
func TestSkipValueSpans(t *testing.T) {
	cases := []string{
		`null`, `true`, `false`, `-1.5e+3`, `"s"`, `"br]ack}et"`,
		`[1,[2,{"a":"]"}],3]`, `{"k":{"n":[null]},"x":"{"}`,
	}
	for _, src := range cases {
		p := Parser{Data: []byte(" " + src + " ")}
		span, err := p.SkipValue()
		if err != nil {
			t.Fatalf("%q: SkipValue: %v", src, err)
		}
		if string(span) != src {
			t.Fatalf("%q: span = %q", src, span)
		}
		if !p.AtEnd() {
			t.Fatalf("%q: trailing input not consumed by AtEnd", src)
		}
	}
	for _, bad := range notJSON {
		p := Parser{Data: []byte(bad)}
		if _, err := p.SkipValue(); err == nil && p.AtEnd() {
			t.Fatalf("%q: SkipValue accepted malformed input", bad)
		}
	}
}

// notJSON are inputs encoding/json refuses that a bracket-counting scanner
// does not: mismatched brackets, missing colons and commas inside nested
// values, control bytes in keys and strings, bad escapes and literals.
var notJSON = []string{
	``, `[1`, `{"a":`, `"unterminated`, `tru`, `01`,
	`{"x":[1},"interval_s":60}`, `{"x":{"a" 1},"interval_s":60}`, `[1 2]`, `{"a":1 "b":2}`,
	"{\"x\x01\":1}", "{\"x\":\"a\x01b\"}", "\"tab\tin string\"", `"\x"`, `"\u12"`,
	`[1,]`, `{"a":1,}`, `{,}`, `nul`, `-`, `1.`, `.5`, `+1`, `[}`, `{]`,
}

// nested returns a value n arrays deep.
func nested(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }

// TestSkipValueNestingLimit pins encoding/json's nesting limit, and that a
// parser started inside an enclosing document counts its levels.
func TestSkipValueNestingLimit(t *testing.T) {
	for _, tc := range []struct {
		depth, start int
		ok           bool
	}{{MaxDepth, 0, true}, {MaxDepth + 1, 0, false}, {MaxDepth - 1, 1, true}, {MaxDepth, 1, false}} {
		src := []byte(nested(tc.depth))
		p := Parser{Data: src, Depth: tc.start}
		_, err := p.SkipValue()
		if (err == nil) != tc.ok || json.Valid(src) != (tc.depth <= MaxDepth) {
			t.Errorf("depth %d from %d: SkipValue error %v, json.Valid %v", tc.depth, tc.start, err, json.Valid(src))
		}
		if err == nil && p.Depth != tc.start {
			t.Errorf("depth %d from %d: parser left at depth %d", tc.depth, tc.start, p.Depth)
		}
	}
}

// FuzzSkipValue holds the scanner to encoding/json: on any input, SkipValue
// followed by AtEnd succeeds exactly when json.Valid accepts it.
func FuzzSkipValue(f *testing.F) {
	for _, s := range notJSON {
		f.Add([]byte(s))
	}
	for _, s := range []string{
		`null`, `{"k":{"n":[null,true,false]},"x":"{"}`, `-0.5e-3`, "\"bad\xffutf8\xfe\"", "\"del\x7f\"",
		`{"\u0069d":1,"a\"b":"\n\t\/\ud800"}`, nested(MaxDepth), nested(MaxDepth + 1),
		`{"a":` + nested(MaxDepth-1) + `}`, `{"a":` + nested(MaxDepth) + `}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := Parser{Data: data}
		_, err := p.SkipValue()
		if got, want := err == nil && p.AtEnd(), json.Valid(data); got != want {
			t.Fatalf("%q: SkipValue+AtEnd = %v (err %v), json.Valid = %v", data, got, err, want)
		}
	})
}

// TestVerbatimReads pins the verbatim decoders' two rules: a string is read
// only when it decodes to its own bytes, and an object key only when it is
// exactly one of the field names, unescaped, and not repeated.
func TestVerbatimReads(t *testing.T) {
	for in, want := range map[string]bool{
		`"plain"`: true, `""`: true, `"日本"`: true, `"<&>"`: true,
		`"esc\"aped"`: false, `"\u0041"`: false, "\"bad\xff\"": false, `null`: false, `5`: false,
	} {
		p := Parser{Data: []byte(in)}
		raw, err := p.VerbatimString()
		if got := err == nil; got != want {
			t.Errorf("VerbatimString(%s): err %v, want verbatim %v", in, err, want)
		}
		if err == nil && `"`+string(raw)+`"` != in {
			t.Errorf("VerbatimString(%s) = %q", in, raw)
		}
	}

	names := []string{"type", "seq"}
	for in, want := range map[string][]int{
		`{"type":1,"seq":2}`: {0, 1}, `{"seq":1}`: {1},
		`{"Type":1}`: nil, `{"typ\u0065":1}`: nil, `{"type":1,"type":2}`: {0, -1}, `{"x":1}`: nil,
	} {
		p := Parser{Data: []byte(in)}
		var seen uint32
		var got []int
		err := p.Object(func(key []byte) error {
			i, err := p.ExactField(key, &seen, names...)
			if err != nil {
				if err != ErrInexact {
					t.Errorf("%s: ExactField error %v, want ErrInexact", in, err)
				}
				got = append(got, -1)
				return err
			}
			got = append(got, i)
			_, err = p.SkipValue()
			return err
		})
		if want == nil {
			want = []int{-1}
		}
		if (err == nil) != (want[len(want)-1] >= 0) || len(got) != len(want) {
			t.Errorf("%s: fields %v, error %v; want %v", in, got, err, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: fields %v, want %v", in, got, want)
			}
		}
	}
}
