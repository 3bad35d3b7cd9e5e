// Package jsonlite is a minimal JSON scanner and set of append-encoders for
// the repo's hot wire types (monitoring snapshots, plan responses). The
// stock encoding/json round trip is reflect-driven and validates each input
// in a separate pass; for the structs exchanged every MAPE interval that
// overhead dominates the whole service path, so their codecs are written by
// hand against this package instead.
//
// The encoders are byte-identical to encoding/json — same float formatting,
// same string escaping (including HTML escaping), same omitempty shapes —
// so journals and golden streams cannot tell which codec produced them. The
// Parser accepts exactly JSON — what json.Valid accepts, nesting limit
// included — so a body it parsed can be stored and re-read by any JSON
// reader. It scans; the decode semantics hand-written unmarshalers need
// (merge-into-existing values, last duplicate key wins, slice capacity reuse)
// are the caller's job.
package jsonlite

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// Parser scans one JSON value from Data. The zero value with Data set is
// ready to use.
type Parser struct {
	Data []byte
	Pos  int
	// Depth is the number of objects and arrays open at Pos. A parser whose
	// value will be embedded in a larger document may start at the enclosing
	// depth, so what it accepts stays within MaxDepth there as well.
	Depth int

	// escaped records whether the last string Key scanned — the key an
	// Object callback was handed, or a string value — held an escape
	// sequence.
	escaped bool
}

// MaxDepth is encoding/json's nesting limit: a document with more objects and
// arrays open at once is not valid to it.
const MaxDepth = 10000

// Errorf returns a decode error annotated with the current offset.
func (p *Parser) Errorf(format string, args ...any) error {
	return fmt.Errorf("jsonlite: at offset %d: %s", p.Pos, fmt.Sprintf(format, args...))
}

// WS skips insignificant whitespace.
func (p *Parser) WS() {
	for p.Pos < len(p.Data) {
		switch p.Data[p.Pos] {
		case ' ', '\t', '\n', '\r':
			p.Pos++
		default:
			return
		}
	}
}

// Expect consumes the next non-space byte, which must be c.
func (p *Parser) Expect(c byte) error {
	p.WS()
	if p.Pos >= len(p.Data) || p.Data[p.Pos] != c {
		return p.Errorf("expected %q", c)
	}
	p.Pos++
	return nil
}

// Peek returns the next non-space byte without consuming it (0 at EOF).
func (p *Parser) Peek() byte {
	p.WS()
	if p.Pos >= len(p.Data) {
		return 0
	}
	return p.Data[p.Pos]
}

// AtEnd reports whether only whitespace remains.
func (p *Parser) AtEnd() bool {
	p.WS()
	return p.Pos == len(p.Data)
}

// Key parses a string — an object key or a string value — and returns its
// unescaped bytes. Strings without escapes — every key this repo writes — are
// returned as a sub-slice of the input; escaped ones take the slow path
// through encoding/json, which also checks the escapes.
func (p *Parser) Key() ([]byte, error) {
	start := p.Pos
	if err := p.Expect('"'); err != nil {
		return nil, err
	}
	begin := p.Pos
	p.escaped = false
	for p.Pos < len(p.Data) {
		switch p.Data[p.Pos] {
		case '"':
			raw := p.Data[begin:p.Pos]
			p.Pos++
			if !p.escaped {
				return raw, nil
			}
			// Rare: a key written with escape sequences can still name a
			// known field, so it must be unescaped to match.
			var k string
			if err := json.Unmarshal(p.Data[start:p.Pos], &k); err != nil {
				return nil, p.Errorf("bad object key: %v", err)
			}
			return []byte(k), nil
		case '\\':
			p.escaped = true
			p.Pos += 2
		default:
			if p.Data[p.Pos] < 0x20 {
				return nil, p.Errorf("control character in string")
			}
			p.Pos++
		}
	}
	return nil, p.Errorf("unterminated string")
}

// ErrInexact is a verbatim decoder's answer for well-formed input it leaves
// to encoding/json, because encoding/json would read it differently than its
// bytes say: an escaped or non-UTF-8 string, a case-folded or repeated key.
var ErrInexact = errors.New("jsonlite: input is not verbatim")

// VerbatimString parses a string value that decodes to its own bytes — no
// escape sequence, valid UTF-8 — and returns them as a sub-slice of Data. Any
// other string is ErrInexact: encoding/json unescapes it, or replaces its
// invalid bytes with U+FFFD.
func (p *Parser) VerbatimString() ([]byte, error) {
	raw, err := p.Key()
	if err != nil {
		return nil, err
	}
	if p.escaped || !utf8.Valid(raw) {
		return nil, ErrInexact
	}
	return raw, nil
}

// ExactField is the verbatim decoders' key rule. It returns key's index among
// names — a struct's JSON field names, at most 32 — and marks it in seen, the
// set of fields one object has named so far. A key that is escaped, repeated,
// or not exactly one of names is ErrInexact: encoding/json would match it by
// folding case, or merge a repeated key's value into the first one's.
func (p *Parser) ExactField(key []byte, seen *uint32, names ...string) (int, error) {
	if p.escaped {
		return 0, ErrInexact
	}
	for i, name := range names {
		if string(key) == name {
			if *seen&(1<<i) != 0 {
				return 0, ErrInexact
			}
			*seen |= 1 << i
			return i, nil
		}
	}
	return 0, ErrInexact
}

// String parses a JSON string value.
func (p *Parser) String() (string, error) {
	raw, err := p.Key()
	return string(raw), err
}

// SkipValue scans past one JSON value of any shape and returns its span (for
// delegating a subtree to another decoder). It is a recursive descent over the
// same scanners the hand-written decoders use, so it accepts exactly what
// encoding/json accepts.
func (p *Parser) SkipValue() ([]byte, error) {
	p.WS()
	start := p.Pos
	var err error
	switch p.Peek() {
	case '{':
		err = p.Object(func([]byte) error {
			_, err := p.SkipValue()
			return err
		})
	case '[':
		_, err = p.Array(func() error {
			_, err := p.SkipValue()
			return err
		})
	case '"':
		_, err = p.Key()
	case 't', 'f':
		_, err = p.Bool()
	case 'n':
		if !p.Null() {
			err = p.Errorf("expected a value")
		}
	default:
		_, err = p.NumberToken()
	}
	if err != nil {
		return nil, err
	}
	return p.Data[start:p.Pos], nil
}

// NumberToken scans one JSON number (strict grammar) and returns its text.
func (p *Parser) NumberToken() ([]byte, error) {
	p.WS()
	start := p.Pos
	if p.Pos < len(p.Data) && p.Data[p.Pos] == '-' {
		p.Pos++
	}
	digits := 0
	first := byte(0)
	for p.Pos < len(p.Data) && p.Data[p.Pos] >= '0' && p.Data[p.Pos] <= '9' {
		if digits == 0 {
			first = p.Data[p.Pos]
		}
		p.Pos++
		digits++
	}
	if digits == 0 {
		return nil, p.Errorf("expected a number")
	}
	if first == '0' && digits > 1 {
		// The JSON grammar has no leading zeros: int is "0" or 1-9 *digit.
		return nil, p.Errorf("invalid leading zero in number")
	}
	if p.Pos < len(p.Data) && p.Data[p.Pos] == '.' {
		p.Pos++
		frac := 0
		for p.Pos < len(p.Data) && p.Data[p.Pos] >= '0' && p.Data[p.Pos] <= '9' {
			p.Pos++
			frac++
		}
		if frac == 0 {
			return nil, p.Errorf("expected fraction digits")
		}
	}
	if p.Pos < len(p.Data) && (p.Data[p.Pos] == 'e' || p.Data[p.Pos] == 'E') {
		p.Pos++
		if p.Pos < len(p.Data) && (p.Data[p.Pos] == '+' || p.Data[p.Pos] == '-') {
			p.Pos++
		}
		exp := 0
		for p.Pos < len(p.Data) && p.Data[p.Pos] >= '0' && p.Data[p.Pos] <= '9' {
			p.Pos++
			exp++
		}
		if exp == 0 {
			return nil, p.Errorf("expected exponent digits")
		}
	}
	return p.Data[start:p.Pos], nil
}

// Float parses a JSON number as float64.
func (p *Parser) Float() (float64, error) {
	tok, err := p.NumberToken()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, p.Errorf("bad number %q", tok)
	}
	return f, nil
}

// Int parses a JSON number destined for an integer field. Like
// encoding/json, only plain integer tokens are accepted — "1.0" and "3e2"
// are errors for integer targets.
func (p *Parser) Int() (int64, error) {
	tok, err := p.NumberToken()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return 0, p.Errorf("cannot decode number %q into an integer field", tok)
	}
	return n, nil
}

// Bool parses a JSON boolean.
func (p *Parser) Bool() (bool, error) {
	p.WS()
	switch {
	case len(p.Data)-p.Pos >= 4 && string(p.Data[p.Pos:p.Pos+4]) == "true":
		p.Pos += 4
		return true, nil
	case len(p.Data)-p.Pos >= 5 && string(p.Data[p.Pos:p.Pos+5]) == "false":
		p.Pos += 5
		return false, nil
	default:
		return false, p.Errorf("expected a boolean")
	}
}

// Null consumes a null literal if present and reports whether it did.
func (p *Parser) Null() bool {
	p.WS()
	if len(p.Data)-p.Pos >= 4 && string(p.Data[p.Pos:p.Pos+4]) == "null" {
		p.Pos += 4
		return true
	}
	return false
}

// Object drives the key/value loop of one object: fn receives each unescaped
// key and must parse the value. A null in place of the object is a no-op,
// matching encoding/json's treatment of null for structs.
func (p *Parser) Object(fn func(key []byte) error) error {
	if p.Null() {
		return nil
	}
	if err := p.open('{'); err != nil {
		return err
	}
	if p.Peek() == '}' {
		p.close()
		return nil
	}
	for {
		k, err := p.Key()
		if err != nil {
			return err
		}
		if err := p.Expect(':'); err != nil {
			return err
		}
		if err := fn(k); err != nil {
			return err
		}
		switch p.Peek() {
		case ',':
			p.Pos++
		case '}':
			p.close()
			return nil
		default:
			return p.Errorf("expected ',' or '}' in object")
		}
	}
}

// Array drives the element loop of one array; elem parses one element. It
// reports whether the value was an actual array (false for null), so callers
// can reproduce encoding/json's null-sets-slice-to-nil semantics.
func (p *Parser) Array(elem func() error) (bool, error) {
	if p.Null() {
		return false, nil
	}
	if err := p.open('['); err != nil {
		return false, err
	}
	if p.Peek() == ']' {
		p.close()
		return true, nil
	}
	for {
		if err := elem(); err != nil {
			return true, err
		}
		switch p.Peek() {
		case ',':
			p.Pos++
		case ']':
			p.close()
			return true, nil
		default:
			return true, p.Errorf("expected ',' or ']' in array")
		}
	}
}

// open consumes the bracket that opens an object or array, one level deeper.
func (p *Parser) open(c byte) error {
	if err := p.Expect(c); err != nil {
		return err
	}
	if p.Depth++; p.Depth > MaxDepth {
		return p.Errorf("exceeded max nesting depth %d", MaxDepth)
	}
	return nil
}

// close consumes the bracket that closes the innermost open object or array.
func (p *Parser) close() {
	p.Pos++
	p.Depth--
}

// AppendFloat appends f formatted exactly as encoding/json formats floats:
// shortest representation, 'f' form except for very small or very large
// magnitudes, with the exponent's leading zero trimmed. NaN and infinities
// are unsupported, as in encoding/json; the returned error reports them and
// a zero is emitted so the output stays structurally valid.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(dst, '0'), fmt.Errorf("json: unsupported value: %v", f)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Trim "e-09" to "e-9", as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// htmlSafe marks the ASCII bytes encoding/json emits verbatim inside strings
// when HTML escaping is on (the default for Marshal and Encoder).
var htmlSafe = func() (s [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		s[b] = true
	}
	s['"'], s['\\'], s['<'], s['>'], s['&'] = false, false, false, false, false
	return
}()

const hexDigits = "0123456789abcdef"

// AppendString appends s as a quoted JSON string, byte-identical to
// encoding/json's default (HTML-escaping) encoder.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		// U+2028 and U+2029 are valid JSON but break JavaScript string
		// literals; encoding/json escapes them.
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendInt appends n in base 10 (integers need no special JSON handling;
// this keeps codec call sites uniform).
func AppendInt(dst []byte, n int64) []byte { return strconv.AppendInt(dst, n, 10) }
