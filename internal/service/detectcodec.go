// The /v1/detect wire codec without reflection. The request, the response
// and the singleflight key have one fixed shape each, so the hot path reads
// and writes them by hand; encoding/json stays the reference and the general
// path. The parity contract: for every body, readDetectRequest returns the
// request and the error text json.Decoder.Decode returns, and
// appendDetectResponse the bytes json.Encoder.Encode writes (HTML escaping
// and trailing newline included). FuzzDetectRequestDecode and
// FuzzDetectResponseEncode pin both.
package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"
)

// MaxBodyBytes caps a /v1/detect body, on a replica and at the fleet
// coordinator alike: a larger one is 413.
const MaxBodyBytes = 4 << 20

// fastBodyBytes is the largest body readDetectRequest buffers for the
// hand-written parser; longer or unsized bodies stream through json.Decoder.
const fastBodyBytes = 4 << 10

// maxPooledBytes bounds the buffers bufPool keeps: a rare huge response is
// left to the collector rather than pinned.
const maxPooledBytes = 64 << 10

// bufPool holds the request read buffer and the response encode buffer.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, fastBodyBytes)
	return &b
}}

func putBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledBytes {
		*bp = b[:0]
		bufPool.Put(bp)
	}
}

// readDetectRequest decodes one DetectRequest from body, whose length is
// size (-1 when unknown), exactly as json.NewDecoder(body).Decode would. A
// body of known size up to fastBodyBytes is read into a pooled buffer and
// parsed by hand when it has the common shape (parseDetectRequest); every
// other body is decoded by json.Decoder over the bytes already read followed
// by the rest of the body, or by the read error that cut it short.
func readDetectRequest(body io.Reader, size int64) (DetectRequest, error) {
	if size < 0 || size > fastBodyBytes {
		return decodeDetectRequest(body)
	}
	bp := bufPool.Get().(*[]byte)
	buf := (*bp)[:size]
	n, rerr := 0, error(nil)
	for n < len(buf) && rerr == nil {
		var m int
		m, rerr = body.Read(buf[n:])
		n += m
	}
	buf = buf[:n]
	defer putBuf(bp, buf)
	// json.Decoder completes an object at its closing brace, before it looks
	// at a read error or at anything after it, so a whole object in buf
	// decodes the same whatever follows.
	var req DetectRequest
	if parseDetectRequest(buf, &req) {
		return req, nil
	}
	var r io.Reader = bytes.NewReader(buf)
	switch {
	case rerr == nil:
		r = io.MultiReader(r, body)
	case rerr != io.EOF:
		r = io.MultiReader(r, errReader{rerr})
	}
	return decodeDetectRequest(r)
}

// decodeDetectRequest is json.NewDecoder(r).Decode into a DetectRequest, in
// a function of its own: the decoder takes the request's address, which
// moves it to the heap, and the parsed path need not pay for that.
func decodeDetectRequest(r io.Reader) (DetectRequest, error) {
	var req DetectRequest
	err := json.NewDecoder(r).Decode(&req)
	return req, err
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// parseDetectRequest parses b into req when b holds one JSON object of the
// common shape and nothing after it but whitespace: each known key in exact
// case at most once; strings of printable ASCII without escapes; true or
// false; integers with no fraction, exponent or leading zero that fit their
// field; arrays of such strings. For such a body json.Decoder gives the same
// request. It reports false, with req untouched, for anything else — other
// keys, escapes, null, floats, repeats — which json.Decoder then decodes.
func parseDetectRequest(b []byte, req *DetectRequest) bool {
	var out DetectRequest
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		*req = out
		return skipSpace(b, i+1) == len(b)
	}
	var seen uint8
	for {
		key, j, ok := plainString(b, i)
		if !ok {
			return false
		}
		i = skipSpace(b, j)
		if i == len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)
		var bit uint8
		switch string(key) {
		case "database":
			bit = 1
			var s []byte
			s, i, ok = plainString(b, i)
			out.Database = string(s)
		case "tables":
			bit = 2
			out.Tables, i, ok = plainStrings(b, i)
		case "pipelined":
			bit = 4
			out.Pipelined, i, ok = plainBool(b, i)
		case "deadline_ms":
			bit = 8
			out.DeadlineMillis, i, ok = plainInt(b, i, 64)
		case "trace":
			bit = 16
			out.Trace, i, ok = plainBool(b, i)
		case "model_version":
			bit = 32
			var v int64
			v, i, ok = plainInt(b, i, strconv.IntSize)
			out.ModelVersion = int(v)
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		i = skipSpace(b, i)
		if i == len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			if skipSpace(b, i+1) != len(b) {
				return false
			}
			*req = out
			return true
		default:
			return false
		}
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// plainString reads a string of printable ASCII without escapes at b[i:]
// and returns its contents and the index after its closing quote.
func plainString(b []byte, i int) ([]byte, int, bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, i, false
		}
	}
	return nil, i, false
}

// plainStrings reads an array of plain strings; [] is an empty, non-nil
// slice, as json.Decoder makes it.
func plainStrings(b []byte, i int) ([]string, int, bool) {
	if i == len(b) || b[i] != '[' {
		return nil, i, false
	}
	i = skipSpace(b, i+1)
	out := []string{}
	if i < len(b) && b[i] == ']' {
		return out, i + 1, true
	}
	for {
		s, j, ok := plainString(b, i)
		if !ok {
			return nil, i, false
		}
		out = append(out, string(s))
		i = skipSpace(b, j)
		if i == len(b) {
			return nil, i, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return out, i + 1, true
		default:
			return nil, i, false
		}
	}
}

func plainBool(b []byte, i int) (bool, int, bool) {
	switch {
	case bytes.HasPrefix(b[i:], []byte("true")):
		return true, i + 4, true
	case bytes.HasPrefix(b[i:], []byte("false")):
		return false, i + 5, true
	}
	return false, i, false
}

// plainInt reads an optionally negative integer without leading zeros that
// fits bits signed bits. A fraction or exponent after it is left for the
// caller, which accepts only whitespace, ',' or '}' there.
func plainInt(b []byte, i int, bits int) (int64, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	if i == len(b) || b[i] < '0' || b[i] > '9' {
		return 0, i, false
	}
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	var u uint64
	if b[i] == '0' {
		i++
	} else {
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			d := uint64(b[i] - '0')
			if u > (limit-d)/10 {
				return 0, i, false
			}
			u = u*10 + d
		}
	}
	if neg {
		return -int64(u), i, true
	}
	return int64(u), i, true
}

// appendDetectResponse appends the bytes json.NewEncoder(w).Encode(resp)
// writes: the same field order and omitempty rules, null for a nil slice,
// HTML-safe string escaping, and a trailing newline. The span tree, when
// present, is spliced in from json.Marshal.
func appendDetectResponse(dst []byte, resp *DetectResponse) ([]byte, error) {
	dst = append(dst, `{"database":`...)
	dst = appendJSONString(dst, resp.Database)
	dst = append(dst, `,"tables":`...)
	if resp.Tables == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range resp.Tables {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendDetectTable(dst, &resp.Tables[i])
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"duration_ms":`...)
	dst = strconv.AppendInt(dst, resp.DurationMillis, 10)
	dst = append(dst, `,"total_columns":`...)
	dst = strconv.AppendInt(dst, int64(resp.TotalColumns), 10)
	dst = append(dst, `,"scanned_columns":`...)
	dst = strconv.AppendInt(dst, int64(resp.ScannedColumns), 10)
	dst = append(dst, `,"degraded":`...)
	dst = strconv.AppendBool(dst, resp.Degraded)
	dst = append(dst, `,"degraded_columns":`...)
	dst = strconv.AppendInt(dst, int64(resp.DegradedColumns), 10)
	dst = append(dst, `,"retries":`...)
	dst = strconv.AppendInt(dst, int64(resp.Retries), 10)
	if len(resp.Errors) > 0 {
		dst = append(dst, `,"errors":`...)
		dst = appendJSONStrings(dst, resp.Errors)
	}
	if resp.ModelVersion != 0 {
		dst = append(dst, `,"model_version":`...)
		dst = strconv.AppendInt(dst, int64(resp.ModelVersion), 10)
	}
	if resp.Trace != nil {
		trace, err := json.Marshal(resp.Trace)
		if err != nil {
			return dst, err
		}
		dst = append(dst, `,"trace":`...)
		dst = append(dst, trace...)
	}
	return append(dst, '}', '\n'), nil
}

func appendDetectTable(dst []byte, t *DetectTable) []byte {
	dst = append(dst, `{"table":`...)
	dst = appendJSONString(dst, t.Table)
	dst = append(dst, `,"columns":`...)
	if t.Columns == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range t.Columns {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendDetectColumn(dst, &t.Columns[i])
		}
		dst = append(dst, ']')
	}
	if t.Skipped {
		dst = append(dst, `,"skipped":true`...)
	}
	if t.SkipReason != "" {
		dst = append(dst, `,"skip_reason":`...)
		dst = appendJSONString(dst, t.SkipReason)
	}
	return append(dst, '}')
}

func appendDetectColumn(dst []byte, c *DetectColumn) []byte {
	dst = append(dst, `{"column":`...)
	dst = appendJSONString(dst, c.Column)
	dst = append(dst, `,"types":`...)
	dst = appendJSONStrings(dst, c.Types)
	dst = append(dst, `,"phase":`...)
	dst = strconv.AppendInt(dst, int64(c.Phase), 10)
	dst = append(dst, `,"scanned":`...)
	dst = strconv.AppendBool(dst, c.Scanned)
	if c.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	if c.DegradeReason != "" {
		dst = append(dst, `,"degrade_reason":`...)
		dst = appendJSONString(dst, c.DegradeReason)
	}
	return append(dst, '}')
}

// appendJSONStrings appends ss as a JSON array, null when nil.
func appendJSONStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, s)
	}
	return append(dst, ']')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json quotes it with HTML
// escaping on: <, > and & as \u003c, \u003e and \u0026; \b \f \n \r \t;
// \u00XX for the other control bytes; U+2028 and U+2029 escaped; and each
// byte of invalid UTF-8 as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
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
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFlightKey appends the key that identifies identical detect requests for singleflight
// coalescing: RouteKey() ‖ 0, then the database, the table count and each
// table, each length-prefixed, then pipelined, deadline_ms, model_version and
// the route key's length at fixed width. The route-key prefix matches the
// granularity the fleet coordinator shards by, so on a replica the colliding
// traffic is exactly the traffic routed to collide there; the fixed-width
// tail marks where the prefix ends, so the key decodes back to one request
// and any parameter difference is a different key. It reads only the
// decoded fields, so fields the service does not know, retired request knobs
// included, never split it. Trace is not in it: traced requests bypass the
// group.
func appendFlightKey(b []byte, req DetectRequest) []byte {
	b = append(b, req.Database...)
	if len(req.Tables) == 1 {
		b = append(b, '/')
		b = append(b, req.Tables[0]...)
	}
	routeLen := len(b)
	b = append(b, 0)
	b = binary.AppendUvarint(b, uint64(len(req.Database)))
	b = append(b, req.Database...)
	b = binary.AppendUvarint(b, uint64(len(req.Tables)))
	for _, t := range req.Tables {
		b = binary.AppendUvarint(b, uint64(len(t)))
		b = append(b, t...)
	}
	pipelined := byte(0)
	if req.Pipelined {
		pipelined = 1
	}
	b = append(b, pipelined)
	b = binary.LittleEndian.AppendUint64(b, uint64(req.DeadlineMillis))
	b = binary.LittleEndian.AppendUint64(b, uint64(req.ModelVersion))
	b = binary.LittleEndian.AppendUint64(b, uint64(routeLen))
	return b
}
