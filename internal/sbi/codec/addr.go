package codec

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Addr describes an IP address field held as a value. It travels as
// String's wire does — its text, "" for the zero value, which is also what
// netip.Addr's MarshalText writes for encoding/json — so a message keeps its
// bytes when an address string becomes a netip.Addr. A dotted IPv4 quad
// decodes in place, allocating nothing; any other text is parsed as
// netip.ParseAddr parses it, and text that parse rejects is a decode error.
func (f *Fields) Addr(name string, p *netip.Addr) {
	var tmp [64]byte
	switch f.mode {
	case binAppend:
		text := p.AppendTo(tmp[:0])
		f.buf = append(binary.AppendUvarint(f.buf, uint64(len(text))), text...)
	case binDecode:
		if err := setAddr(p, f.take(f.uvarint())); err != nil {
			f.fail(err)
		}
	case jsonAppend:
		text := p.AppendTo(tmp[:0])
		f.member(name)
		f.bad = f.bad || !plain(text)
		f.buf = append(append(append(f.buf, '"'), text...), '"')
	case jsonDecode:
		if f.match(name) {
			if b := f.str(); !f.bad {
				f.bad = setAddr(p, b) != nil
			}
			f.next(false)
		}
	}
}

// setAddr parses text into *p as (*netip.Addr).UnmarshalText does: "" is
// the zero value. A failure leaves the zero value.
func setAddr(p *netip.Addr, text []byte) error {
	if a, ok := parseIPv4(text); ok {
		*p = a
		return nil
	}
	*p = netip.Addr{}
	if len(text) == 0 {
		return nil
	}
	a, err := netip.ParseAddr(string(text))
	if err != nil {
		return fmt.Errorf("codec: IP address: %w", err)
	}
	*p = a
	return nil
}

// parseIPv4 reads the dotted quad netip.ParseAddr accepts — four decimal
// octets of at most 255, none with a leading zero — and reports false for
// anything else, which is then left to netip.ParseAddr.
func parseIPv4(text []byte) (netip.Addr, bool) {
	var ip [4]byte
	field, digits := 0, 0
	var v int
	for _, c := range text {
		switch {
		case c >= '0' && c <= '9':
			if digits == 1 && v == 0 {
				return netip.Addr{}, false
			}
			v = v*10 + int(c-'0')
			digits++
			if v > 255 {
				return netip.Addr{}, false
			}
		case c == '.' && digits > 0 && field < 3:
			ip[field] = byte(v)
			field, digits, v = field+1, 0, 0
		default:
			return netip.Addr{}, false
		}
	}
	if field != 3 || digits == 0 {
		return netip.Addr{}, false
	}
	ip[3] = byte(v)
	return netip.AddrFrom4(ip), true
}
