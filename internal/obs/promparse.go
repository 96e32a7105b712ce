package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// A minimal Prometheus text-exposition parser — the verifying half of
// prom.go, used by the zipserverd end-to-end test to prove that what
// the server exposes is actually scrapeable. It checks
// the rules an external scraper would: metric-name and label-name charsets,
// label-value escaping, float-parseable values, TYPE declarations with
// known types, histogram families exposing _sum/_count and cumulative
// non-decreasing buckets ending in le="+Inf". It accepts (and skips over)
// OpenMetrics-style exemplars after a '#' on sample lines.

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseExposition parses and validates r. It returns every sample and
// the first format violation found (samples parsed so far are still
// returned, so callers can report both).
func ParseExposition(r io.Reader) ([]PromSample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var samples []PromSample
	types := map[string]string{}     // family -> declared type
	bucketCum := map[string]uint64{} // histogram family -> last cumulative bucket count
	bucketInf := map[string]bool{}   // histogram family -> saw le="+Inf"
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		fail := func(format string, args ...any) ([]PromSample, error) {
			return samples, fmt.Errorf("line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fail("malformed TYPE comment %q", line)
				}
				name, typ := fields[2], fields[3]
				if !validMetricName(name) {
					return fail("TYPE declares invalid metric name %q", name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fail("unknown metric type %q", typ)
				}
				if prev, ok := types[name]; ok && prev != typ {
					return fail("metric %q re-declared as %s (was %s)", name, typ, prev)
				}
				types[name] = typ
			}
			// HELP and free comments are skipped.
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return fail("%v", err)
		}
		if fam, isBucket := strings.CutSuffix(s.Name, "_bucket"); isBucket && types[fam] == "histogram" {
			le, ok := s.Labels["le"]
			if !ok {
				return fail("histogram bucket %s without le label", s.Name)
			}
			cum := uint64(s.Value)
			if le == "+Inf" {
				bucketInf[fam] = true
			}
			if prev, seen := bucketCum[fam]; seen && cum < prev {
				return fail("histogram %s buckets not cumulative (le=%q: %d < %d)", fam, le, cum, prev)
			}
			bucketCum[fam] = cum
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return samples, err
	}
	for fam, typ := range types {
		if typ != "histogram" {
			continue
		}
		if !bucketInf[fam] {
			return samples, fmt.Errorf("histogram %s has no le=\"+Inf\" bucket", fam)
		}
		if !hasSample(samples, fam+"_sum") || !hasSample(samples, fam+"_count") {
			return samples, fmt.Errorf("histogram %s missing _sum or _count", fam)
		}
	}
	return samples, nil
}

// ValidateExposition checks format validity, discarding the samples.
func ValidateExposition(r io.Reader) error {
	_, err := ParseExposition(r)
	return err
}

func hasSample(samples []PromSample, name string) bool {
	for _, s := range samples {
		if s.Name == name {
			return true
		}
	}
	return false
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.Contains(s, ":") {
		return false
	}
	return validMetricName(s)
}

// parseSampleLine parses `name[{labels}] value [timestamp] [# exemplar]`.
func parseSampleLine(line string) (PromSample, error) {
	s := PromSample{}
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	s.Name = line[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = tail
	}
	rest = strings.TrimLeft(rest, " \t")
	// Strip an OpenMetrics exemplar suffix: " # {labels} value [ts]".
	if j := strings.Index(rest, "#"); j >= 0 {
		ex := strings.TrimSpace(rest[j+1:])
		if !strings.HasPrefix(ex, "{") {
			return s, fmt.Errorf("malformed exemplar %q", ex)
		}
		if _, tail, err := parseLabels(ex); err != nil {
			return s, fmt.Errorf("exemplar labels: %v", err)
		} else if _, err := parseValueAndTimestamp(tail); err != nil {
			return s, fmt.Errorf("exemplar value: %v", err)
		}
		rest = strings.TrimSpace(rest[:j])
	}
	v, err := parseValueAndTimestamp(rest)
	if err != nil {
		return s, err
	}
	s.Value = v
	return s, nil
}

// parseValueAndTimestamp parses `value [timestamp]`, returning the value.
func parseValueAndTimestamp(s string) (float64, error) {
	fields := strings.Fields(s)
	if len(fields) < 1 || len(fields) > 2 {
		return 0, fmt.Errorf("expected value [timestamp], got %q", s)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0, fmt.Errorf("invalid sample value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return 0, fmt.Errorf("invalid timestamp %q", fields[1])
		}
	}
	return v, nil
}

// parseLabels parses a `{name="value",...}` block, validating label names
// and escape sequences, and returns the remaining tail of the line.
func parseLabels(s string) (map[string]string, string, error) {
	if !strings.HasPrefix(s, "{") {
		return nil, s, fmt.Errorf("expected '{', got %q", s)
	}
	labels := map[string]string{}
	i := 1
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return labels, s[i+1:], nil
		}
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i >= len(s) {
			return nil, s, fmt.Errorf("unterminated label block")
		}
		name := s[start:i]
		if !validLabelName(name) {
			return nil, s, fmt.Errorf("invalid label name %q", name)
		}
		i++ // '='
		if i >= len(s) || s[i] != '"' {
			return nil, s, fmt.Errorf("label %s: value must be quoted", name)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return nil, s, fmt.Errorf("label %s: unterminated value", name)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, s, fmt.Errorf("label %s: dangling escape", name)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, s, fmt.Errorf("label %s: invalid escape \\%c", name, s[i+1])
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels[name] = val.String()
	}
}
