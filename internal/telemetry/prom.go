package telemetry

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteProm renders the snapshot in the Prometheus text exposition format
// (version 0.0.4): one HELP/TYPE header per family, durations in seconds,
// histograms as cumulative <name>_bucket{le="..."} series plus _sum and
// _count. Returns the first write error.
func (s Snapshot) WriteProm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range s.Families {
		if f.Help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(f.Name)
			bw.WriteByte(' ')
			bw.WriteString(promEscape(f.Help))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(f.Name)
		bw.WriteByte(' ')
		bw.WriteString(f.Kind.String())
		bw.WriteByte('\n')
		for _, m := range f.Metrics {
			if f.Kind == KindHistogram && m.Histogram != nil {
				writePromHist(bw, f.Name, f.Labels, m.LabelValues, m.Histogram)
				continue
			}
			bw.WriteString(f.Name)
			writePromLabels(bw, f.Labels, m.LabelValues, "", "")
			bw.WriteByte(' ')
			bw.WriteString(promFloat(m.Value))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// writePromHist renders one histogram child: cumulative buckets in seconds,
// the +Inf bucket, _sum and _count.
func writePromHist(bw *bufio.Writer, name string, labels, vals []string, h *HistogramSnapshot) {
	var cum uint64
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		bw.WriteString(name)
		bw.WriteString("_bucket")
		writePromLabels(bw, labels, vals, "le", promFloat(b.Seconds()))
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatUint(cum, 10))
		bw.WriteByte('\n')
	}
	cum += h.Counts[len(h.Bounds)]
	bw.WriteString(name)
	bw.WriteString("_bucket")
	writePromLabels(bw, labels, vals, "le", "+Inf")
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatUint(cum, 10))
	bw.WriteByte('\n')

	bw.WriteString(name)
	bw.WriteString("_sum")
	writePromLabels(bw, labels, vals, "", "")
	bw.WriteByte(' ')
	bw.WriteString(promFloat(float64(h.SumNanos) / 1e9))
	bw.WriteByte('\n')

	bw.WriteString(name)
	bw.WriteString("_count")
	writePromLabels(bw, labels, vals, "", "")
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatUint(h.Count, 10))
	bw.WriteByte('\n')
}

// writePromLabels renders {k="v",...}; extraKey/extraVal append one more
// pair (the histogram le label). Writes nothing when there are no pairs.
func writePromLabels(bw *bufio.Writer, labels, vals []string, extraKey, extraVal string) {
	if len(labels) == 0 && extraKey == "" {
		return
	}
	bw.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(l)
		bw.WriteString(`="`)
		bw.WriteString(promEscapeLabel(vals[i]))
		bw.WriteByte('"')
	}
	if extraKey != "" {
		if len(labels) > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(extraKey)
		bw.WriteString(`="`)
		bw.WriteString(extraVal)
		bw.WriteByte('"')
	}
	bw.WriteByte('}')
}

// promFloat renders a sample value the way Prometheus expects: integral
// values without an exponent, +Inf/-Inf/NaN spelled out.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// The escapers are built once: a strings.Replacer compiles its lookup
// table on first use, which dominated scrape cost when built per label.
var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

// promEscape escapes a HELP string (backslash and newline).
func promEscape(s string) string { return helpEscaper.Replace(s) }

// promEscapeLabel escapes a label value (backslash, quote, newline).
func promEscapeLabel(s string) string { return labelEscaper.Replace(s) }
