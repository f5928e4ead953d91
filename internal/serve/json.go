package serve

// Hand-rolled JSON scanning and rendering for the two request shapes
// the service accepts. encoding/json is out of the question on the
// decide hot path: Unmarshal allocates for every string field and
// reflects over the destination, and even Decoder.Token allocates per
// token. The requests are tiny flat objects with known keys, so a
// field iterator over the raw bytes covers them with zero allocations,
// and responses are appended into the pooled scratch buffer.
//
// Accepted subset: one JSON object of string/number/bool/null fields,
// with nothing but whitespace after it. Nested objects and arrays are
// rejected (no request shape uses them), escapes other than \" \\ \/
// are rejected (site/path names are plain identifiers in every
// deployment this serves), strings must be valid UTF-8 without raw
// control bytes, and numbers follow the JSON grammar, exponents
// included and leading zeros not. Within the subset the scanner reads
// what encoding/json reads; FuzzDecideBytes and FuzzTelemetryBytes
// hold it to that.

import (
	"strconv"
	"unicode/utf8"
)

// jsonScan iterates the fields of a flat JSON object. The zero value
// is invalid; start with newJSONScan.
type jsonScan struct {
	b      []byte
	i      int
	fields int // keys read so far
	err    bool
}

func newJSONScan(b []byte) jsonScan {
	s := jsonScan{b: b}
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == '{' {
		s.i++
	} else {
		s.err = true
	}
	return s
}

// ws skips JSON whitespace.
func (s *jsonScan) ws() {
	b, i := s.b, s.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	s.i = i
}

// next advances to the next key, returning its bytes (unescaped in
// place, see str) and true, or false at the object's end or on a
// syntax error (check s.err). Fields are separated by exactly one
// comma, and only whitespace may follow the closing brace.
//
//multinet:hotpath
func (s *jsonScan) next() ([]byte, bool) {
	s.ws()
	if s.err || s.i >= len(s.b) {
		s.err = true
		return nil, false
	}
	switch s.b[s.i] {
	case '}':
		s.i++
		s.ws()
		s.err = s.i < len(s.b)
		return nil, false
	case ',':
		if s.fields == 0 {
			s.err = true
			return nil, false
		}
		s.i++
		s.ws()
	default:
		if s.fields > 0 {
			s.err = true // a missing comma
			return nil, false
		}
	}
	s.fields++
	key, ok := s.str()
	if !ok {
		return nil, false
	}
	s.ws()
	if s.i >= len(s.b) || s.b[s.i] != ':' {
		s.err = true
		return nil, false
	}
	s.i++
	s.ws()
	return key, true
}

// str parses the quoted string at the cursor, returning its contents.
// Escapes other than \" \\ \/ are rejected; those three are unescaped
// by shifting in place (the buffer is the request scratch, ours to
// mutate). Raw control bytes and invalid UTF-8 are rejected.
//
//multinet:hotpath
func (s *jsonScan) str() ([]byte, bool) {
	b, i := s.b, s.i
	if i >= len(b) || b[i] != '"' {
		s.err = true
		return nil, false
	}
	i++
	start, w := i, i // w: write cursor for in-place unescaping
	var hi byte      // OR of every byte: its top bit flags non-ASCII
	for i < len(b) {
		c := b[i]
		switch {
		case c == '"':
			s.i = i + 1
			out := b[start:w]
			if hi >= utf8.RuneSelf && !utf8.Valid(out) {
				s.err = true
				return nil, false
			}
			return out, true
		case c == '\\':
			i++
			if i >= len(b) {
				s.err = true
				return nil, false
			}
			switch b[i] {
			case '"', '\\', '/':
				b[w] = b[i]
			default:
				s.err = true // \n, \t, \uXXXX: not a path or site name
				return nil, false
			}
		case c < 0x20:
			s.err = true
			return nil, false
		default:
			hi |= c
			b[w] = c
		}
		w++
		i++
	}
	s.err = true
	return nil, false
}

// skipValue consumes the value at the cursor (string, number, bool or
// null only — unknown keys with nested values reject the request).
//
//multinet:hotpath
func (s *jsonScan) skipValue() {
	if s.i >= len(s.b) {
		s.err = true
		return
	}
	switch c := s.b[s.i]; {
	case c == '"':
		s.str()
	case c == '-' || (c >= '0' && c <= '9'):
		s.number()
	case c == 't':
		s.literal("true")
	case c == 'f':
		s.literal("false")
	case c == 'n':
		s.literal("null")
	default:
		s.err = true
	}
}

// literal consumes word, which must be next.
func (s *jsonScan) literal(word string) {
	if len(s.b)-s.i < len(word) || string(s.b[s.i:s.i+len(word)]) != word {
		s.err = true
		return
	}
	s.i += len(word)
}

// number consumes the JSON number at the cursor and returns its bytes:
// an optional minus, an integer part without leading zeros, and
// optional fraction and exponent parts. A digit straight after a lone
// 0 is left for next, which rejects it as a missing comma.
//
//multinet:hotpath
func (s *jsonScan) number() ([]byte, bool) {
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	if s.i < len(s.b) && s.b[s.i] == '0' {
		s.i++
	} else if !s.digits() {
		return nil, false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if !s.digits() {
			return nil, false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if !s.digits() {
			return nil, false
		}
	}
	return s.b[start:s.i], true
}

// digits consumes a run of decimal digits, flagging an error when there
// is none.
func (s *jsonScan) digits() bool {
	b, i := s.b, s.i
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	if i == s.i {
		s.err = true
		return false
	}
	s.i = i
	return true
}

// num parses the number at the cursor as a float64. strconv rounds it
// exactly as encoding/json does, and copies its input only into an
// error, so the conversion stays on the stack. A number beyond the
// float64 range is a malformed request, not an infinity.
//
//multinet:hotpath
func (s *jsonScan) num() (float64, bool) {
	b, ok := s.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		s.err = true
		return 0, false
	}
	return v, true
}

// intNum parses the number at the cursor as a non-negative int
// (signs, fractions and exponents reject — flow sizes are byte counts).
//
//multinet:hotpath
func (s *jsonScan) intNum() (int, bool) {
	b, ok := s.number()
	if !ok {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' || n > (1<<62)/10 {
			s.err = true
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// keyIs compares a scanned key against a literal without conversion.
func keyIs(key []byte, lit string) bool {
	return string(key) == lit // compiler elides the conversion for ==
}

// appendJSONString appends s as a quoted JSON string, escaping the
// two characters (quote, backslash) that site and path identifiers
// could legally smuggle in; control characters are dropped rather
// than escaped (they cannot appear in accepted requests, which reject
// escape forms other than \" \\ \/).
//
//multinet:hotpath
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c >= 0x20:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// appendFloat appends v with enough precision for estimate ratios
// (three decimals) — AppendFloat writes into the provided buffer, so
// the pooled scratch absorbs it without allocation.
//
//multinet:hotpath
func appendFloat(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'f', 3, 64)
}
