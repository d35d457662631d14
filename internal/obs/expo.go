package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file renders a Registry in the two exposition formats the admin
// endpoint serves: the Prometheus text format (version 0.0.4, what
// `/metrics` scrapes expect) and a JSON mirror for humans and scripts.
// Both walk the same deterministic snapshot, so equal registry state
// always produces identical bytes.

// escapeHelp escapes a HELP string per the text format: backslash and
// newline only.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes a label value per the text format: backslash,
// double quote and newline.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a float sample the way Prometheus expects: shortest
// round-trip representation, with NaN and infinities spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// appendLabels renders `{k="v",...}` (empty string for no labels), with
// extra appended after the series' own labels — the summary quantile
// label's slot.
func appendLabels(dst []byte, labels []Label, extra ...Label) []byte {
	if len(labels)+len(extra) == 0 {
		return dst
	}
	dst = append(dst, '{')
	first := true
	for _, set := range [][]Label{labels, extra} {
		for _, l := range set {
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = append(dst, l.Key...)
			dst = append(dst, '=', '"')
			dst = append(dst, escapeLabelValue(l.Value)...)
			dst = append(dst, '"')
		}
	}
	return append(dst, '}')
}

// WritePrometheus renders every family in the Prometheus text exposition
// format, families in name order and series in label order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var buf []byte
	for _, f := range r.snapshot() {
		buf = buf[:0]
		buf = append(buf, "# HELP "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, escapeHelp(f.help)...)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.kind.String()...)
		buf = append(buf, '\n')
		for _, s := range f.series {
			switch f.kind {
			case KindCounter:
				buf = append(buf, f.name...)
				buf = appendLabels(buf, s.labels)
				buf = append(buf, ' ')
				buf = strconv.AppendUint(buf, s.counterFn(), 10)
				buf = append(buf, '\n')
			case KindGauge:
				buf = append(buf, f.name...)
				buf = appendLabels(buf, s.labels)
				buf = append(buf, ' ')
				buf = append(buf, formatValue(s.gaugeFn())...)
				buf = append(buf, '\n')
			case KindSummary:
				sum := s.sampleSummary()
				for i, q := range summaryQuantiles {
					buf = append(buf, f.name...)
					buf = appendLabels(buf, s.labels, L("quantile", formatValue(q)))
					buf = append(buf, ' ')
					buf = append(buf, formatValue(sum.quantiles[i])...)
					buf = append(buf, '\n')
				}
				buf = append(buf, f.name...)
				buf = append(buf, "_sum"...)
				buf = appendLabels(buf, s.labels)
				buf = append(buf, ' ')
				buf = append(buf, formatValue(sum.sum)...)
				buf = append(buf, '\n')
				buf = append(buf, f.name...)
				buf = append(buf, "_count"...)
				buf = appendLabels(buf, s.labels)
				buf = append(buf, ' ')
				buf = strconv.AppendUint(buf, sum.count, 10)
				buf = append(buf, '\n')
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the registry as a JSON array of families, each with
// its name, kind, help and series (labels plus a kind-shaped value).
// Ordering matches WritePrometheus. The JSON is built by hand from the
// sorted snapshot — no map marshaling — so the bytes are deterministic.
func (r *Registry) WriteJSON(w io.Writer) error {
	var buf []byte
	buf = append(buf, '[')
	for fi, f := range r.snapshot() {
		if fi > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "{\"name\":"...)
		buf = appendJSONString(buf, f.name)
		buf = append(buf, ",\"kind\":"...)
		buf = appendJSONString(buf, f.kind.String())
		buf = append(buf, ",\"help\":"...)
		buf = appendJSONString(buf, f.help)
		buf = append(buf, ",\"series\":["...)
		for si, s := range f.series {
			if si > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, "{\"labels\":{"...)
			for li, l := range s.labels {
				if li > 0 {
					buf = append(buf, ',')
				}
				buf = appendJSONString(buf, l.Key)
				buf = append(buf, ':')
				buf = appendJSONString(buf, l.Value)
			}
			buf = append(buf, '}')
			switch f.kind {
			case KindCounter:
				buf = append(buf, ",\"value\":"...)
				buf = strconv.AppendUint(buf, s.counterFn(), 10)
			case KindGauge:
				buf = append(buf, ",\"value\":"...)
				buf = appendJSONFloat(buf, s.gaugeFn())
			case KindSummary:
				sum := s.sampleSummary()
				buf = append(buf, ",\"count\":"...)
				buf = strconv.AppendUint(buf, sum.count, 10)
				buf = append(buf, ",\"sum_seconds\":"...)
				buf = appendJSONFloat(buf, sum.sum)
				for i, q := range summaryQuantiles {
					buf = append(buf, ",\"p"...)
					// 0.5 -> "p50", 0.95 -> "p95", 0.99 -> "p99"
					buf = strconv.AppendInt(buf, int64(q*100+0.5), 10)
					buf = append(buf, "_seconds\":"...)
					buf = appendJSONFloat(buf, sum.quantiles[i])
				}
			}
			buf = append(buf, '}')
		}
		buf = append(buf, "]}"...)
	}
	buf = append(buf, ']', '\n')
	_, err := w.Write(buf)
	return err
}

// appendJSONString appends s as a JSON string literal. Metric names, label
// keys and values are plain UTF-8; the escapes JSON requires are quotes,
// backslashes, and control characters.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for _, r := range s {
		switch {
		case r == '"':
			dst = append(dst, '\\', '"')
		case r == '\\':
			dst = append(dst, '\\', '\\')
		case r == '\n':
			dst = append(dst, '\\', 'n')
		case r == '\t':
			dst = append(dst, '\\', 't')
		case r == '\r':
			dst = append(dst, '\\', 'r')
		case r < 0x20:
			dst = append(dst, fmt.Sprintf(`\u%04x`, r)...)
		default:
			dst = utf8AppendRune(dst, r)
		}
	}
	return append(dst, '"')
}

// utf8AppendRune appends the UTF-8 encoding of r.
func utf8AppendRune(dst []byte, r rune) []byte {
	return append(dst, string(r)...)
}

// appendJSONFloat appends v as a JSON number; NaN and infinities (not
// representable in JSON) become null.
func appendJSONFloat(dst []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(dst, "null"...)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}
