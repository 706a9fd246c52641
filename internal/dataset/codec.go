package dataset

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// AppendRecord appends r's dataset line, without the newline, to dst:
// exactly the bytes json.Marshal(r) returns. A record that cannot be
// encoded (a time outside years 0–9999) returns dst unchanged with
// time.Time.MarshalJSON's error.
//
//studyvet:hotpath — once per record in every dataset sink and fabric stream
func AppendRecord(dst []byte, r *HostRecord) ([]byte, error) {
	line, err := hostCodec.append(dst, r)
	if err != nil {
		return dst, err
	}
	return line, nil
}

// decodeRecord parses one dataset line. The fast path reads what
// AppendRecord writes; any other line — an unknown, case-variant or
// duplicate key, a null where no list is, a surrogate escape, invalid
// UTF-8, a number that is not an in-range integer, trailing bytes, a
// syntax error — goes to json.Unmarshal, whose record and error then
// stand. No string of the record aliases line.
func decodeRecord(line []byte) (*HostRecord, error) {
	r, _, err := parseLine(line)
	return r, err
}

// parseLine is decodeRecord, also returning the copy of line that the
// fast path owns and whose substrings are the record's unescaped
// strings: one allocation for them all. It is "" when the record is
// json.Unmarshal's.
func parseLine(line []byte) (*HostRecord, string, error) {
	own := string(line)
	if r := new(HostRecord); parseOwned(line, own, r) {
		return r, own, nil
	}
	r := new(HostRecord)
	if err := json.Unmarshal(line, r); err != nil {
		return nil, "", err
	}
	return r, "", nil
}

// parseRecord is the decoder's fast path: it reports whether line is
// one HostRecord object it reads exactly as json.Unmarshal would,
// leaving r partly filled when it is not.
func parseRecord(line []byte, r *HostRecord) bool {
	return parseOwned(line, string(line), r)
}

// parseOwned is parseRecord reading r's plain strings out of own, which
// holds line's bytes.
func parseOwned(line []byte, own string, r *HostRecord) bool {
	p := &parser{b: line, s: own}
	if !hostCodec.parse(p, r) {
		return false
	}
	p.ws()
	return p.i == len(p.b)
}

// splitStamp reads the stamp of a line written as AppendRecord writes
// it — the wave and the date, first and in that order, with no
// whitespace — into r, and returns the rest of the line, from the comma
// after the date, and the address that opens it. ok is false for any
// other line. The rest decodes to the same fields whatever the stamp
// before it, which is what lets a Decoder reuse a record.
func splitStamp(line []byte, r *HostRecord) (rest, addr []byte, ok bool) {
	p := &parser{b: line}
	for i := range hostFields[:stampFields] {
		if !p.literal(stampKeys[i]) || !hostFields[i].parse(p, r) {
			return nil, nil, false
		}
	}
	rest = line[p.i:]
	if !p.literal(stampKeys[stampFields]) {
		return nil, nil, false
	}
	addr, ok = p.plain()
	return rest, addr, ok
}

// deepCopy returns a copy of r that shares no slice or pointer with it;
// strings, being immutable, are shared.
func (r *HostRecord) deepCopy() *HostRecord {
	cp := *r
	hostCodec.clone(&cp)
	return &cp
}

// The schema: every key of the four record types in declaration order,
// with the codec of its value. Encoder, decoder and deepCopy all read
// it.
var (
	hostFields = []field[HostRecord]{
		fieldOf("wave", intCodec, func(r *HostRecord) *int { return &r.Wave }),
		fieldOf("date", timeCodec, func(r *HostRecord) *time.Time { return &r.Date }),
		fieldOf("address", stringCodec, func(r *HostRecord) *string { return &r.Address }),
		fieldOf("asn", intCodec, func(r *HostRecord) *int { return &r.ASN }),
		fieldOf("via", stringCodec, func(r *HostRecord) *string { return &r.Via }),
		fieldOf("reached_opcua", boolCodec, func(r *HostRecord) *bool { return &r.ReachedOPCUA }),
		omitEmpty("error", stringCodec, func(r *HostRecord) *string { return &r.Error }),
		omitEmpty("failure_class", stringCodec, func(r *HostRecord) *string { return &r.FailureClass }),
		omitEmpty("app_uri", stringCodec, func(r *HostRecord) *string { return &r.AppURI }),
		omitEmpty("product_uri", stringCodec, func(r *HostRecord) *string { return &r.ProductURI }),
		omitEmpty("application_type", stringCodec, func(r *HostRecord) *string { return &r.ApplicationType }),
		omitEmpty("software_version", stringCodec, func(r *HostRecord) *string { return &r.SoftwareVersion }),
		omitEmpty("endpoints", listOf(endpointCodec), func(r *HostRecord) *[]EndpointRecord { return &r.Endpoints }),
		omitEmpty("cert", pointerTo(certCodec), func(r *HostRecord) **CertRecord { return &r.Cert }),
		fieldOf("sc_attempted", boolCodec, func(r *HostRecord) *bool { return &r.SecureChannelAttempted }),
		fieldOf("sc_ok", boolCodec, func(r *HostRecord) *bool { return &r.SecureChannelOK }),
		omitEmpty("sc_policy", stringCodec, func(r *HostRecord) *string { return &r.SecureChannelPolicy }),
		fieldOf("cert_rejected", boolCodec, func(r *HostRecord) *bool { return &r.CertRejected }),
		fieldOf("anon_offered", boolCodec, func(r *HostRecord) *bool { return &r.AnonOffered }),
		fieldOf("anon_attempted", boolCodec, func(r *HostRecord) *bool { return &r.AnonAttempted }),
		fieldOf("anon_ok", boolCodec, func(r *HostRecord) *bool { return &r.AnonOK }),
		omitEmpty("anon_error", stringCodec, func(r *HostRecord) *string { return &r.AnonError }),
		omitEmpty("namespaces", listOf(stringCodec), func(r *HostRecord) *[]string { return &r.Namespaces }),
		omitEmpty("nodes", listOf(nodeCodec), func(r *HostRecord) *[]NodeRecord { return &r.Nodes }),
		fieldOf("variables", intCodec, func(r *HostRecord) *int { return &r.Variables }),
		fieldOf("readable", intCodec, func(r *HostRecord) *int { return &r.Readable }),
		fieldOf("writable", intCodec, func(r *HostRecord) *int { return &r.Writable }),
		fieldOf("methods", intCodec, func(r *HostRecord) *int { return &r.Methods }),
		fieldOf("executable", intCodec, func(r *HostRecord) *int { return &r.Executable }),
		fieldOf("bytes", int64Codec, func(r *HostRecord) *int64 { return &r.Bytes }),
		fieldOf("duration", int64Codec, func(r *HostRecord) *int64 { return (*int64)(&r.Duration) }),
	}
	hostCodec     = objectOf(hostFields...)
	endpointCodec = objectOf(
		fieldOf("url", stringCodec, func(e *EndpointRecord) *string { return &e.URL }),
		fieldOf("mode", stringCodec, func(e *EndpointRecord) *string { return &e.Mode }),
		fieldOf("policy", stringCodec, func(e *EndpointRecord) *string { return &e.PolicyURI }),
		fieldOf("token_types", listOf(stringCodec), func(e *EndpointRecord) *[]string { return &e.TokenTypes }),
	)
	certCodec = objectOf(
		fieldOf("thumbprint", stringCodec, func(c *CertRecord) *string { return &c.Thumbprint }),
		fieldOf("hash", stringCodec, func(c *CertRecord) *string { return &c.Hash }),
		fieldOf("bits", intCodec, func(c *CertRecord) *int { return &c.Bits }),
		fieldOf("not_before", timeCodec, func(c *CertRecord) *time.Time { return &c.NotBefore }),
		fieldOf("not_after", timeCodec, func(c *CertRecord) *time.Time { return &c.NotAfter }),
		fieldOf("subject_cn", stringCodec, func(c *CertRecord) *string { return &c.SubjectCN }),
		fieldOf("subject_org", stringCodec, func(c *CertRecord) *string { return &c.SubjectOrg }),
		fieldOf("app_uri", stringCodec, func(c *CertRecord) *string { return &c.AppURI }),
		fieldOf("self_signed", boolCodec, func(c *CertRecord) *bool { return &c.SelfSigned }),
		fieldOf("modulus", stringCodec, func(c *CertRecord) *string { return &c.ModulusB64 }),
	)
	nodeCodec = objectOf(
		fieldOf("id", stringCodec, func(n *NodeRecord) *string { return &n.ID }),
		fieldOf("class", stringCodec, func(n *NodeRecord) *string { return &n.Class }),
		fieldOf("display_name", stringCodec, func(n *NodeRecord) *string { return &n.DisplayName }),
		fieldOf("readable", boolCodec, func(n *NodeRecord) *bool { return &n.Readable }),
		fieldOf("writable", boolCodec, func(n *NodeRecord) *bool { return &n.Writable }),
		fieldOf("executable", boolCodec, func(n *NodeRecord) *bool { return &n.Executable }),
		omitEmpty("value_sample", stringCodec, func(n *NodeRecord) *string { return &n.ValueSample }),
	)
)

// stampFields is how many of hostFields, from the first, stamp a
// record with its wave: a delta clone's line differs from its address's
// line a wave before only there.
const stampFields = 2

// stampKeys[i] is what precedes hostFields[i]'s value in a line
// AppendRecord writes, for the stamp fields and the first after them.
var stampKeys = func() (keys [stampFields + 1]string) {
	sep := "{"
	for i := range keys {
		keys[i] = sep + `"` + hostFields[i].key + `":`
		sep = ","
	}
	return keys
}()

// A codec writes a value of type V as encoding/json does and reads it
// back on the fast path, reporting false on anything else.
type codec[V any] struct {
	append func(dst []byte, v *V) ([]byte, error)
	parse  func(p *parser, v *V) bool
	empty  func(v *V) bool // omitempty's test; nil where no field omits
	// clone gives a copied value slices and pointers of its own, so it
	// shares nothing mutable with the original; nil where V holds none.
	clone func(v *V)
}

var (
	stringCodec = codec[string]{
		append: func(dst []byte, s *string) ([]byte, error) { return appendString(dst, *s), nil },
		parse:  (*parser).str,
		empty:  func(s *string) bool { return *s == "" },
	}
	intCodec = codec[int]{
		append: func(dst []byte, v *int) ([]byte, error) { return strconv.AppendInt(dst, int64(*v), 10), nil },
		parse: func(p *parser, v *int) bool {
			n, ok := p.number(strconv.IntSize)
			*v = int(n)
			return ok
		},
	}
	int64Codec = codec[int64]{
		append: func(dst []byte, v *int64) ([]byte, error) { return strconv.AppendInt(dst, *v, 10), nil },
		parse: func(p *parser, v *int64) bool {
			n, ok := p.number(64)
			*v = n
			return ok
		},
	}
	boolCodec = codec[bool]{
		append: func(dst []byte, v *bool) ([]byte, error) { return strconv.AppendBool(dst, *v), nil },
		parse: func(p *parser, v *bool) bool {
			*v = p.literal("true")
			return *v || p.literal("false")
		},
	}
	timeCodec = codec[time.Time]{append: appendTime, parse: (*parser).time}
)

// A field is one key of a record type T.
type field[T any] struct {
	key    string
	omit   func(*T) bool // nil: always written
	append func([]byte, *T) ([]byte, error)
	parse  func(*parser, *T) bool
	clone  func(*T) // nil where the value holds no slice or pointer
}

func fieldOf[T, V any](key string, c codec[V], get func(*T) *V) field[T] {
	f := field[T]{
		key:    key,
		append: func(dst []byte, t *T) ([]byte, error) { return c.append(dst, get(t)) },
		parse:  func(p *parser, t *T) bool { return c.parse(p, get(t)) },
	}
	if c.clone != nil {
		f.clone = func(t *T) { c.clone(get(t)) }
	}
	return f
}

// omitEmpty is fieldOf for a key tagged omitempty.
func omitEmpty[T, V any](key string, c codec[V], get func(*T) *V) field[T] {
	f := fieldOf(key, c, get)
	f.omit = func(t *T) bool { return c.empty(get(t)) }
	return f
}

// objectOf is the codec of a struct with the given fields, in order. Its
// parser takes the keys in any order, each at most once.
func objectOf[T any](fields ...field[T]) codec[T] {
	var deep []field[T] // the fields that clone
	for _, f := range fields {
		if f.clone != nil {
			deep = append(deep, f)
		}
	}
	c := codec[T]{
		append: func(dst []byte, t *T) ([]byte, error) {
			sep := byte('{')
			for i := range fields {
				f := &fields[i]
				if f.omit != nil && f.omit(t) {
					continue
				}
				dst = append(append(append(dst, sep, '"'), f.key...), '"', ':')
				var err error
				if dst, err = f.append(dst, t); err != nil {
					return dst, err
				}
				sep = ','
			}
			if sep == '{' {
				dst = append(dst, '{')
			}
			return append(dst, '}'), nil
		},
		parse: func(p *parser, t *T) bool {
			if !p.eat('{') {
				return false
			}
			if p.eat('}') {
				return true
			}
			var seen uint64
			for next := 0; ; {
				p.ws()
				key, ok := p.plain()
				if !ok || !p.eat(':') {
					return false
				}
				// Keys come in field order, omitted ones skipped: look
				// from the field after the last one read.
				i := 0
				for i < len(fields) && fields[(next+i)%len(fields)].key != string(key) {
					i++
				}
				i = (next + i) % len(fields)
				if fields[i].key != string(key) || seen&(1<<i) != 0 {
					return false
				}
				seen |= 1 << i
				p.ws()
				if !fields[i].parse(p, t) {
					return false
				}
				if p.eat('}') {
					return true
				}
				if !p.eat(',') {
					return false
				}
				next = i + 1
			}
		},
	}
	if len(deep) > 0 {
		c.clone = func(t *T) {
			for _, f := range deep {
				f.clone(t)
			}
		}
	}
	return c
}

// listOf is the codec of a slice: null when nil, as encoding/json writes
// and reads it, and [] an empty, non-nil slice.
func listOf[E any](elem codec[E]) codec[[]E] {
	return codec[[]E]{
		append: func(dst []byte, s *[]E) ([]byte, error) {
			if *s == nil {
				return append(dst, "null"...), nil
			}
			dst = append(dst, '[')
			for i := range *s {
				if i > 0 {
					dst = append(dst, ',')
				}
				var err error
				if dst, err = elem.append(dst, &(*s)[i]); err != nil {
					return dst, err
				}
			}
			return append(dst, ']'), nil
		},
		parse: func(p *parser, s *[]E) bool {
			if p.literal("null") {
				return true
			}
			if !p.eat('[') {
				return false
			}
			*s = []E{}
			if p.eat(']') {
				return true
			}
			for {
				p.ws()
				var zero E
				*s = append(*s, zero)
				if !elem.parse(p, &(*s)[len(*s)-1]) {
					return false
				}
				if p.eat(']') {
					return true
				}
				if !p.eat(',') {
					return false
				}
			}
		},
		empty: func(s *[]E) bool { return len(*s) == 0 },
		clone: func(s *[]E) {
			*s = slices.Clone(*s) // nil stays nil, [] stays []
			if elem.clone != nil {
				for i := range *s {
					elem.clone(&(*s)[i])
				}
			}
		},
	}
}

// pointerTo is the codec of a pointer to a struct; null, which only an
// omitempty field could avoid writing, is left to encoding/json.
func pointerTo[E any](elem codec[E]) codec[*E] {
	return codec[*E]{
		append: func(dst []byte, v **E) ([]byte, error) {
			if *v == nil {
				return append(dst, "null"...), nil
			}
			return elem.append(dst, *v)
		},
		parse: func(p *parser, v **E) bool {
			*v = new(E)
			return elem.parse(p, *v)
		},
		empty: func(v **E) bool { return *v == nil },
		clone: func(v **E) {
			if *v != nil {
				c := **v
				if elem.clone != nil {
					elem.clone(&c)
				}
				*v = &c
			}
		},
	}
}

// appendTime appends t as time.Time.MarshalJSON does: RFC 3339 with
// nanoseconds, quoted, from the formatter MarshalJSON itself calls. A
// time MarshalJSON refuses (a year outside 0–9999, a zone offset of a
// day or more) returns MarshalJSON's own error.
func appendTime(dst []byte, t *time.Time) ([]byte, error) {
	if _, off := t.Zone(); t.Year() < 0 || t.Year() > 9999 || off <= -86400 || off >= 86400 {
		if _, err := t.MarshalJSON(); err != nil {
			return dst, err
		}
	}
	dst = t.AppendFormat(append(dst, '"'), time.RFC3339Nano)
	return append(dst, '"'), nil
}

const hexDigits = "0123456789abcdef"

// htmlSafe[b] reports whether encoding/json, escaping HTML as Marshal
// does, writes the ASCII byte b as itself.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		safe[b] = !strings.ContainsRune(`"\<>&`, b)
	}
	return safe
}()

// appendString appends s quoted as encoding/json quotes it: short
// escapes for \b \f \n \r \t " and \, \u00XX for the other control bytes
// and < > &, the escaped replacement character U+FFFD for each invalid
// UTF-8 byte, and U+2028 and U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			if k := strings.IndexByte(shortEscaped, b); k >= 0 {
				dst = append(dst, '\\', shortEscapes[k])
			} else {
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029:
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// The bytes encoding/json writes as a backslash and a letter, and the
// letters; the parser reads / as an escape too.
const (
	shortEscaped = "\"\\\b\f\n\r\t/"
	shortEscapes = "\"\\bfnrt/"
)

// parser walks one line. Every method reports false on input outside
// the fast path and then leaves the position undefined.
type parser struct {
	b []byte
	s string // b's bytes, owned: plain strings are read as its substrings
	i int
}

// ws skips JSON whitespace.
func (p *parser) ws() {
	for p.i < len(p.b) && p.b[p.i] <= ' ' {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c after optional whitespace.
func (p *parser) eat(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// literal consumes the keyword lit (true, false, null).
func (p *parser) literal(lit string) bool {
	if len(p.b)-p.i >= len(lit) && string(p.b[p.i:p.i+len(lit)]) == lit {
		p.i += len(lit)
		return true
	}
	return false
}

// plainByte[c] reports whether c stands for itself inside a string of
// printable ASCII: not a quote, backslash, control or non-ASCII byte.
var plainByte = func() (plain [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		plain[c] = c != '"' && c != '\\'
	}
	return plain
}()

// plain reads a string of printable ASCII without escapes and returns
// its contents in place.
func (p *parser) plain() ([]byte, bool) {
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return nil, false
	}
	i := p.i + 1
	for i < len(p.b) && plainByte[p.b[i]] {
		i++
	}
	if i == len(p.b) || p.b[i] != '"' {
		return nil, false
	}
	s := p.b[p.i+1 : i]
	p.i = i + 1
	return s, true
}

// str reads a string into dst.
func (p *parser) str(dst *string) bool {
	start := p.i
	if _, ok := p.plain(); ok {
		*dst = p.s[start+1 : p.i-1]
		return true
	}
	p.i = start
	return p.unquote(dst)
}

// unquote reads a string with escapes or non-ASCII text. A \u escape of
// a UTF-16 surrogate or an invalid UTF-8 byte, which encoding/json
// replaces by U+FFFD, ends the fast path.
func (p *parser) unquote(dst *string) bool {
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return false
	}
	var out []byte
	for i := p.i + 1; i < len(p.b); {
		c := p.b[i]
		switch {
		case c == '"':
			*dst = string(out)
			p.i = i + 1
			return true
		case c < ' ' || c == '\\' && i+1 == len(p.b):
			return false
		case c == '\\' && p.b[i+1] == 'u':
			if len(p.b)-i < 6 {
				return false
			}
			r, err := strconv.ParseUint(string(p.b[i+2:i+6]), 16, 16)
			if err != nil || utf16.IsSurrogate(rune(r)) {
				return false
			}
			out = utf8.AppendRune(out, rune(r))
			i += 6
		case c == '\\':
			k := strings.IndexByte(shortEscapes, p.b[i+1])
			if k < 0 {
				return false
			}
			out = append(out, shortEscaped[k])
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(p.b[i:])
			if r == utf8.RuneError && size == 1 {
				return false
			}
			out = append(out, p.b[i:i+size]...)
			i += size
		}
	}
	return false
}

// time hands a plain string to time.Time.UnmarshalJSON, which is what
// encoding/json does with the raw token.
func (p *parser) time(dst *time.Time) bool {
	start := p.i
	if _, ok := p.plain(); !ok {
		return false
	}
	return dst.UnmarshalJSON(p.b[start:p.i]) == nil
}

// number reads a JSON integer that fits a signed integer of the given
// bits. A fraction, an exponent, a leading zero or an overflow ends the
// fast path; encoding/json rejects all but the leading zero with a type
// error and that with a syntax error.
func (p *parser) number(bits int) (int64, bool) {
	i := p.i
	neg := i < len(p.b) && p.b[i] == '-'
	if neg {
		i++
	}
	start := i
	var n uint64
	for ; i < len(p.b) && '0' <= p.b[i] && p.b[i] <= '9'; i++ {
		n = n*10 + uint64(p.b[i]-'0')
	}
	digits := i - start
	if digits == 0 || digits > 19 || digits > 1 && p.b[start] == '0' {
		return 0, false
	}
	if i < len(p.b) && (p.b[i] == '.' || p.b[i] == 'e' || p.b[i] == 'E') {
		return 0, false
	}
	if limit := uint64(1) << (bits - 1); n > limit || n == limit && !neg {
		return 0, false
	}
	p.i = i
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}
