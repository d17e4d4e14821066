package codec_test

// Differential tests of the JSON half against encoding/json, the
// reference: for every sample message and a family of rewrites of its
// canonical body, DecodeJSON must leave the struct json.Unmarshal leaves,
// AppendJSON must write the bytes json.Marshal writes, and the decoded
// value must survive a binary round trip. The rewrites that stay inside
// the fast path's grammar must also stay on the fast path, and the ones
// outside it must leave it — otherwise the fallback would hide a fast
// path that silently stopped being taken.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"shield5g/internal/nf/nrf"
	"shield5g/internal/paka"
	"shield5g/internal/sbi/codec"
)

// An ordered JSON tree: object is []member, array is []any, leaves are
// string, json.Number, bool or nil.
type member struct {
	key string
	val any
}

func parse(t testing.TB, body []byte) any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var value func() any
	value = func() any {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("parse %s: %v", body, err)
		}
		switch tok {
		case json.Delim('{'):
			obj := []member{}
			for dec.More() {
				key, _ := dec.Token()
				obj = append(obj, member{key.(string), value()})
			}
			_, _ = dec.Token()
			return obj
		case json.Delim('['):
			arr := []any{}
			for dec.More() {
				arr = append(arr, value())
			}
			_, _ = dec.Token()
			return arr
		}
		return tok
	}
	return value()
}

// style says how emit writes a tree.
type style struct {
	pad     string // between every two tokens
	reverse bool   // object members last to first
	escape  bool   // the first character of every string as \u00XX
}

func emit(b *strings.Builder, v any, st style) {
	str := func(s string) {
		b.WriteByte('"')
		if st.escape && s != "" {
			fmt.Fprintf(b, `\u%04x`, s[0])
			s = s[1:]
		}
		b.WriteString(s + `"`)
	}
	switch v := v.(type) {
	case []member:
		b.WriteString("{" + st.pad)
		for i := range v {
			m := v[i]
			if st.reverse {
				m = v[len(v)-1-i]
			}
			if i > 0 {
				b.WriteString("," + st.pad)
			}
			str(m.key)
			b.WriteString(st.pad + ":" + st.pad)
			emit(b, m.val, st)
			b.WriteString(st.pad)
		}
		b.WriteString("}")
	case []any:
		b.WriteString("[" + st.pad)
		for i, e := range v {
			if i > 0 {
				b.WriteString("," + st.pad)
			}
			emit(b, e, st)
			b.WriteString(st.pad)
		}
		b.WriteString("]")
	case string:
		str(v)
	case nil:
		b.WriteString("null")
	default:
		fmt.Fprint(b, v)
	}
}

func text(v any, st style) []byte {
	var b strings.Builder
	emit(&b, v, st)
	return []byte(b.String())
}

// rewriteLeaves returns one copy of tree per leaf (arrays count as
// leaves too), with that leaf replaced by what to returns for it; leaves
// for which to returns the leaf itself are skipped.
func rewriteLeaves(tree any, to func(leaf any) any) []any {
	var out []any
	var walk func(v any, rebuild func(any) any)
	walk = func(v any, rebuild func(any) any) {
		if nv := to(v); !reflect.DeepEqual(nv, v) {
			out = append(out, rebuild(nv))
		}
		switch v := v.(type) {
		case []member:
			for i := range v {
				walk(v[i].val, func(nv any) any {
					c := append([]member(nil), v...)
					c[i].val = nv
					return rebuild(c)
				})
			}
		case []any:
			for i := range v {
				walk(v[i], func(nv any) any {
					c := append([]any(nil), v...)
					c[i] = nv
					return rebuild(c)
				})
			}
		}
	}
	walk(tree, func(nv any) any { return nv })
	return out
}

func hasString(v any) bool {
	switch v := v.(type) {
	case []member:
		return len(v) > 0 // a key is a string
	case []any:
		for _, e := range v {
			if hasString(e) {
				return true
			}
		}
	case string:
		return true
	}
	return false
}

// agree decodes body through DecodeJSON and through json.Unmarshal into
// fresh messages of s's type and demands the same outcome, then checks
// the value's encodings. It reports whether the fast path decoded body.
func agree(t testing.TB, s sample, body []byte) bool {
	t.Helper()
	pristine := bytes.Clone(body)
	fast := codec.FastDecodeJSON(bytes.Clone(body), s.fresh())

	got, ref := s.fresh(), s.fresh()
	gerr := codec.DecodeJSON(body, got)
	// The body was on loan: nothing decoded may still point into it.
	for i := range body {
		body[i] = 0xFF
	}
	rerr := json.Unmarshal(pristine, ref)
	if (gerr == nil) != (rerr == nil) {
		t.Fatalf("%s: %s\n DecodeJSON err = %v\n json.Unmarshal err = %v", s.name, pristine, gerr, rerr)
	}
	if fast && rerr != nil {
		t.Fatalf("%s: %s\n fast path accepted what encoding/json rejects: %v", s.name, pristine, rerr)
	}
	agreeReused(t, s, pristine, ref, rerr)
	if rerr != nil {
		return fast
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("%s: %s\n DecodeJSON:     %#v\n json.Unmarshal: %#v", s.name, pristine, got, ref)
	}

	out, err := codec.AppendJSON(nil, got)
	want, werr := json.Marshal(ref)
	if err != nil || werr != nil || !bytes.Equal(out, want) {
		t.Fatalf("%s: AppendJSON (err %v)\n got %s\nwant %s (err %v)", s.name, err, out, want, werr)
	}

	back := s.fresh()
	decodeFrame(t, frameOf(t, got), back)
	// A frame carries a list's length only, so an empty list comes back nil.
	switch m := got.(type) {
	case *paka.UDMGenerateAVBatchRequest:
		if len(m.Items) == 0 {
			m.Items = nil
		}
	case *paka.UDMGenerateAVBatchResponse:
		if len(m.Vectors) == 0 {
			m.Vectors = nil
		}
	case *nrf.DiscoverResponse:
		if len(m.Profiles) == 0 {
			m.Profiles = nil
		}
	}
	if !reflect.DeepEqual(back, got) {
		t.Fatalf("%s: binary round trip of %s\n got  %#v\n want %#v", s.name, pristine, back, got)
	}
	return fast
}

// agreeReused decodes body, three times over, into a message of s's type
// as a served pair hands it to a decode: decoded before and then scrubbed
// (sbi.Endpoint.Serve), so the decode draws on the storage the last one
// kept. The outcome and the exported fields must be json.Unmarshal's into
// a zero message (rerr, ref), and nothing may point into the body.
func agreeReused(t testing.TB, s sample, body []byte, ref codec.Message, rerr error) {
	t.Helper()
	m := s.fresh()
	used, ok := m.(interface{ Scrub() })
	if !ok {
		return
	}
	canonical, _ := json.Marshal(s.msg)
	if err := codec.DecodeJSON(canonical, m); err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	for range 3 {
		used.Scrub()
		loan := bytes.Clone(body)
		err := codec.DecodeJSON(loan, m)
		for i := range loan {
			loan[i] = 0xFF
		}
		if (err == nil) != (rerr == nil) {
			t.Fatalf("%s: %s\n DecodeJSON into a scrubbed message err = %v\n json.Unmarshal err = %v", s.name, body, err, rerr)
		}
		if got, want := exported(m), exported(ref); rerr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s\n DecodeJSON into a scrubbed message: %#v\n json.Unmarshal:                   %#v", s.name, body, got, want)
		}
	}
}

// exported returns the values of m's exported fields.
func exported(m codec.Message) []any {
	v := reflect.ValueOf(m).Elem()
	var out []any
	for i := range v.NumField() {
		if v.Type().Field(i).IsExported() {
			out = append(out, v.Field(i).Interface())
		}
	}
	return out
}

func TestJSONDifferential(t *testing.T) {
	for _, s := range samples() {
		t.Run(s.name, func(t *testing.T) {
			canonical, err := json.Marshal(s.msg)
			if err != nil {
				t.Fatal(err)
			}
			tree := parse(t, canonical)
			obj := tree.([]member)

			check := func(what string, body []byte, wantFast bool) {
				t.Helper()
				if fast := agree(t, s, body); fast != wantFast {
					t.Errorf("%s: fast path = %v, want %v: %s", what, fast, wantFast, body)
				}
			}
			check("canonical", bytes.Clone(canonical), true)
			check("reordered", text(tree, style{reverse: true}), true)
			check("padded", text(tree, style{pad: " \n\t\r"}), true)
			check("trailing whitespace", append(bytes.Clone(canonical), " \n"...), true)
			for _, v := range rewriteLeaves(tree, func(leaf any) any {
				switch leaf.(type) {
				case string:
					return ""
				case []any:
					return []any{}
				}
				return leaf
			}) {
				// An emptied fixed-width value (codec.Bytes16/32) is the
				// one emptied leaf that is invalid: encoding/json rejects
				// it, so the fast path must leave it to that error.
				body := text(v, style{})
				check("emptied leaf", body, json.Unmarshal(body, s.fresh()) == nil)
			}

			check("escaped", text(tree, style{escape: true}), !hasString(tree))
			check("unknown key", text(append(obj[:len(obj):len(obj)], member{"zz_unknown", json.Number("1")}), style{}), false)
			if len(obj) > 0 {
				check("duplicate key", text(append(obj[:len(obj):len(obj)], obj[0]), style{}), false)
			}
			check("trailing value", append(bytes.Clone(canonical), " {}"...), false)
			check("trailing garbage", append(bytes.Clone(canonical), 'x'), false)
			check("truncated", bytes.Clone(canonical[:len(canonical)-1]), false)

			// null is a fast-path value only where encoding/json stores
			// nil (byte strings, lists, pointers); which leaf is which is
			// the description's business, so only agreement is checked.
			for _, v := range rewriteLeaves(tree, func(any) any { return nil }) {
				agree(t, s, text(v, style{}))
			}
		})
	}
}

// TestJSONFastPathBoundary pins, on bodies written out by hand, which
// value shapes the fast path takes and which it hands to encoding/json.
func TestJSONFastPathBoundary(t *testing.T) {
	byName := make(map[string]sample)
	for _, s := range samples() {
		byName[s.name] = s
	}
	for _, tc := range boundaryRows {
		if fast := agree(t, byName[tc.sample], []byte(tc.body)); fast != tc.fast {
			t.Errorf("%s <- %s: fast path = %v, want %v", tc.sample, tc.body, fast, tc.fast)
		}
	}
}

// boundaryRows are TestJSONFastPathBoundary's bodies, by sample name, with
// whether the fast path takes each; FuzzJSONDifferential starts from them.
var boundaryRows = []struct {
	sample, body string
	fast         bool
}{
	{"paka.UDMGenerateAVBatchRequest/nil-items", `{"items":null}`, true},
	{"paka.UDMGenerateAVBatchRequest/nil-items", `{"items":[]}`, true},
	{"paka.UDMGenerateAVBatchRequest/nil-items", `{"items":[{"supi":"imsi-1"},{"opc":"AA=="}]}`, true},
	{"paka.UDMGenerateAVBatchRequest/nil-items", `{"items":[{"supi":"imsi-1"},]}`, false},
	// An item's SUPI is a value: text it does not accept is refused.
	{"paka.UDMGenerateAVBatchRequest/nil-items", `{"items":[{"supi":"a"},{"opc":"AA=="}]}`, false},
	{"paka.UDMGenerateAVBatchRequest/nil-items", `{"items":[{"supi":"imsi-1"},{"supi":"imsi-00101000000000001"}]}`, false},
	{"paka.UDMGenerateAVBatchRequest/nil-items", `{"items":{}}`, false},
	// A list's elements are counted before they are decoded: brackets and
	// braces inside strings count for nothing; an array that does not
	// close, an element that is not an object, a missing or trailing comma
	// and an escape all leave the fast path.
	{"paka.UDMGenerateAVBatchRequest/nil-items", `{"items":[{"snn":"]{"}]}`, true},
	{"paka.UDMGenerateAVBatchRequest/nil-items", `{"items":[ {"snn":"[}"} , {"snn":"{{"} , {} ]}`, true},
	{"paka.UDMGenerateAVBatchRequest/nil-items", `{"items":[{"supi":"imsi-1"}`, false},
	{"paka.UDMGenerateAVBatchRequest/nil-items", `{"items":[{},{}`, false},
	{"paka.UDMGenerateAVBatchRequest/nil-items", `{"items":[{}{}]}`, false},
	{"paka.UDMGenerateAVBatchRequest/nil-items", `{"items":[null]}`, false},
	{"paka.UDMGenerateAVBatchRequest/nil-items", `{"items":[{},]}`, false},
	{"paka.UDMGenerateAVBatchRequest/nil-items", `{"items":[{"snn":"a\"]"}]}`, false},
	{"udm.GenerateAuthDataRequest/suci", `{"suci":null,"serving_network_name":"x"}`, true},
	{"udm.GenerateAuthDataRequest/suci", `{"suci":{"Scheme":255,"HomeKeyID":0}}`, true},
	{"udm.GenerateAuthDataRequest/suci", `{"suci":{"Scheme":256}}`, false},
	{"udm.GenerateAuthDataRequest/suci", `{"suci":{"Scheme":01}}`, false},
	{"udm.GenerateAuthDataRequest/suci", `{"suci":{"Scheme":1.0}}`, false},
	{"udm.GenerateAuthDataRequest/suci", `{"suci":{"scheme":1}}`, false}, // encoding/json folds case
	{"udm.GenerateAuthDataRequest/suci", `{"supi":null}`, false},
	{"udm.GenerateAuthDataRequest/suci", `{"supi":"<imsi>"}`, false},
	{"udm.GenerateAuthDataRequest/suci", `{"supi":"imsi-é"}`, false},
	{"udm.GenerateAuthDataRequest/suci", "{\"supi\":\"imsi-\xc3\xa9\"}", false},
	{"udm.GenerateAuthDataRequest/suci", `{"supi":"a\"b"}`, false},
	{"udr.NextAuthBatchRequest", `{"count":0}`, true},
	{"udr.NextAuthBatchRequest", `{"count":9223372036854775807}`, true},
	{"udr.NextAuthBatchRequest", `{"count":9223372036854775808}`, false},
	{"udr.NextAuthBatchRequest", `{"count":-1}`, false},
	{"udr.NextAuthBatchRequest", `{"count":null}`, false},
	// A duplicate that arrives in a visit another key makes progress in.
	{"udr.NextAuthBatchRequest", `{"count":1,"supi":"a","count":2}`, false},
	{"udr.NextAuthBatchRequest", `{"count":"8"}`, false},
	{"udr.GetResponse", `{"subscriber":null}`, false},
	{"udr.GetResponse", `{"subscriber":{"k":"not base64!"}}`, false},
	{"udr.GetResponse", `{"subscriber":{"k":"AAA"}}`, false}, // unpadded
	// base64 skips CR and LF: raw ones are not JSON, escaped ones are.
	{"udr.GetResponse", "{\"subscriber\":{\"k\":\"AA\n==\"}}", false},
	{"udr.GetResponse", `{"subscriber":{"k":"AA\n=="}}`, false},
	{"udr.GetResponse", `{"subscriber":{"k":[1,2]}}`, false},
	{"udr.GetResponse", ` { "subscriber" : { } } `, true},
	{"upf.EstablishResponse", `{"teid":4294967295}`, true},
	{"upf.EstablishResponse", `{"teid":4294967296}`, false},
	{"upf.EstablishResponse", `{"teid":-1}`, false},
	{"upf.ReleaseRequest", `{"seid":18446744073709551615}`, true},
	{"upf.ReleaseRequest", `{"seid":18446744073709551616}`, false},
	{"upf.ReleaseRequest", `{"seid":184467440737095516150}`, false},
	{"nrf.DiscoverRequest", `{"require_hmee":true}`, true},
	{"nrf.DiscoverRequest", `{"require_hmee":false}`, true},
	{"nrf.DiscoverRequest", `{"require_hmee":null}`, false},
	{"nrf.DiscoverRequest", `{"require_hmee":1}`, false},
	{"nrf.DiscoverRequest", `{"require_hmee":"true"}`, false},
	{"sbi.ProblemDetails/omitted", `{"retryAfter":-1}`, false},
	{"udr.Empty", `{}`, true},
	{"udr.Empty", `null`, false},
	{"udr.Empty", ``, false},
	{"udr.Empty", `[]`, false},
}

// TestAppendJSONFallsBackOnEscapes: a string encoding/json would escape
// leaves the fast path, and the bytes still match.
func TestAppendJSONFallsBackOnEscapes(t *testing.T) {
	for _, supi := range []string{"a\"b", `a\b`, "a<b", "a>b", "a&b", "a\nb", "a\x7fb", "café", "a\xffb", "a b"} {
		m := &paka.AMFDeriveKAMFRequest{SUPI: supi, KSEAF: codec.Bytes32{1}}
		_, fast := codec.FastAppendJSON(nil, m)
		if wantFast := supi == "a\x7fb"; fast != wantFast {
			t.Errorf("%q: fast path = %v, want %v", supi, fast, wantFast)
		}
		got, err := codec.AppendJSON([]byte("prefix"), m)
		want, _ := json.Marshal(m)
		if err != nil || string(got) != "prefix"+string(want) {
			t.Errorf("%q: AppendJSON = %s, %v; want prefix%s", supi, got, err, want)
		}
	}
}

// FuzzJSONDifferential feeds arbitrary bodies to every described message
// type: DecodeJSON and json.Unmarshal must agree on the outcome and the
// struct, the value must re-encode to json.Marshal's bytes and round-trip
// through a frame, and nothing may panic or keep a view into the body.
func FuzzJSONDifferential(f *testing.F) {
	all := samples()
	for i, s := range all {
		canonical, _ := json.Marshal(s.msg)
		f.Add(uint8(i), canonical)
		f.Add(uint8(i), text(parse(f, canonical), style{reverse: true, pad: " "}))
		f.Add(uint8(i), text(parse(f, canonical), style{escape: true}))
	}
	f.Add(uint8(0), []byte(`{"supi":null,"opc":"","rand":null,"zz":[1,{"a":"b"}],"supi":"x"} `))
	// Identities: a last character neither a digit nor plain, and text
	// past the width.
	for i, s := range all {
		if text, ok := identityText[s.name]; ok {
			canonical, _ := json.Marshal(s.msg)
			f.Add(uint8(i), bytes.Replace(canonical, []byte(text), []byte(text[:len(text)-1]+"<"), 1))
			f.Add(uint8(i), bytes.Replace(canonical, []byte(text), []byte(text+"0123456789"), 1))
		}
	}
	// The bool and the unsigned integers at 0, at the top of their range
	// and one past it, which encoding/json rejects.
	for i, s := range all {
		for _, body := range rangeBodies[s.name] {
			f.Add(uint8(i), []byte(body))
		}
	}
	for _, tc := range boundaryRows {
		for i, s := range all {
			if s.name == tc.sample {
				f.Add(uint8(i), []byte(tc.body))
			}
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		agree(t, all[int(which)%len(all)], body)
	})
}

// rangeBodies holds, by sample name, bodies with a bool or an unsigned
// integer at 0, at the top of its range and one past it.
var rangeBodies = map[string][]string{
	"nrf.DiscoverRequest":   {`{"nf_type":"UDM","require_hmee":false}`, `{"nf_type":"UDM","require_hmee":true}`, `{"nf_type":"UDM","require_hmee":2}`},
	"upf.EstablishResponse": {`{"teid":0}`, `{"teid":4294967295}`, `{"teid":4294967296}`},
	"upf.ReleaseRequest":    {`{"seid":0}`, `{"seid":18446744073709551615}`, `{"seid":18446744073709551616}`},
}
