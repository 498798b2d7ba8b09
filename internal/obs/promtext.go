package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PromWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4). Errors are sticky; check Err once at the end.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// header emits the HELP/TYPE preamble of one metric family. typ is
// "gauge", "counter" or "histogram".
func (p *PromWriter) header(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample emits one series sample. labels is the raw label list without
// braces (`stage="persist"`), or "" for an unlabeled series.
func (p *PromWriter) sample(name, labels string, v float64) {
	if labels == "" {
		p.printf("%s %s\n", name, formatValue(v))
		return
	}
	p.printf("%s{%s} %s\n", name, labels, formatValue(v))
}

// Gauge emits a complete single-sample gauge family.
func (p *PromWriter) Gauge(name, help string, v float64) {
	p.header(name, "gauge", help)
	p.sample(name, "", v)
}

// Counter emits a complete single-sample counter family.
func (p *PromWriter) Counter(name, help string, v float64) {
	p.header(name, "counter", help)
	p.sample(name, "", v)
}

// Family emits a complete labeled family of type typ ("gauge" or
// "counter"): one sample per entry of values, labeled label="values[i]"
// and valued v(i).
func (p *PromWriter) Family(name, typ, help, label string, values []string, v func(i int) float64) {
	p.header(name, typ, help)
	for i, val := range values {
		p.sample(name, label+"="+strconv.Quote(val), v(i))
	}
}

// Quantiles emits the p50, p99 and p999 of s as a gauge family, one
// sample per quantile="q" label, scaled like Histogram.
func (p *PromWriter) Quantiles(name, help string, s HistSnapshot, scale float64) {
	p.header(name, "gauge", help)
	for _, q := range []float64{0.5, 0.99, 0.999} {
		p.sample(name, fmt.Sprintf("quantile=%q", strconv.FormatFloat(q, 'g', -1, 64)), float64(s.Quantile(q))*scale)
	}
}

// Histogram emits a HistSnapshot as a Prometheus histogram family.
// Bucket bounds are scaled by scale (1e-9 renders nanosecond
// observations in seconds); empty buckets are elided (the cumulative
// convention keeps sparse output valid), the +Inf bucket, _sum and
// _count always appear.
func (p *PromWriter) Histogram(name, help string, s HistSnapshot, scale float64) {
	p.header(name, "histogram", help)
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += c
		bound := float64(BucketBound(i)) * scale
		p.sample(name+"_bucket", fmt.Sprintf("le=%q", strconv.FormatFloat(bound, 'g', -1, 64)), float64(cum))
	}
	p.sample(name+"_bucket", `le="+Inf"`, float64(s.Count))
	p.sample(name+"_sum", "", float64(s.Sum)*scale)
	p.sample(name+"_count", "", float64(s.Count))
}

// Scrape is one parsed exposition.
type Scrape struct {
	// Series maps every sample, keyed by the series as written (name,
	// or name{labels}), to its value.
	Series map[string]float64
	// Types maps every family a # TYPE line declared to its type.
	Types map[string]string
}

// ParseProm parses Prometheus text exposition. HELP and other comment
// lines and blank lines are skipped; a malformed sample line is an
// error. Values that parse to NaN or ±Inf are kept — Check reports
// them.
func ParseProm(r io.Reader) (Scrape, error) {
	out := Scrape{Series: make(map[string]float64), Types: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "#") {
			if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
				out.Types[f[2]] = f[3]
			}
			continue
		}
		if line == "" {
			continue
		}
		// The value is the last space-separated field; the series name
		// (possibly containing spaces inside label values) is the rest.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return Scrape{}, fmt.Errorf("obs: malformed metric line %q", line)
		}
		series := strings.TrimSpace(line[:i])
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return Scrape{}, fmt.Errorf("obs: malformed value in %q: %v", line, err)
		}
		out.Series[series] = v
	}
	if err := sc.Err(); err != nil {
		return Scrape{}, err
	}
	return out, nil
}

// Check returns one line per problem in the scrape, sorted, and none
// when it is healthy: a family declared by a # TYPE line without a
// sample (a histogram's _bucket, _sum and _count samples count for
// it), and a sample whose value is NaN or ±Inf. The declarations are
// the contract, so every family the endpoint writes is held to it and
// no list of names has to be kept beside them.
func (s Scrape) Check() []string {
	var problems []string
	sampled := make(map[string]bool)
	for series, v := range s.Series {
		name, _, _ := strings.Cut(series, "{")
		sampled[name] = true
		if math.IsNaN(v) || math.IsInf(v, 0) {
			problems = append(problems, fmt.Sprintf("%s = %v", series, v))
		}
	}
	for name, typ := range s.Types {
		if sampled[name] || typ == "histogram" &&
			(sampled[name+"_bucket"] || sampled[name+"_sum"] || sampled[name+"_count"]) {
			continue
		}
		problems = append(problems, fmt.Sprintf("%s family %s has no sample", typ, name))
	}
	sort.Strings(problems)
	return problems
}
