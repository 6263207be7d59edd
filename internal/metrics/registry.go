// Registry: named, labeled metric families with a Prometheus text
// exposition surface.
//
// The registry is the process-wide catalogue of Counter/Gauge/Histogram
// vectors. Registration and label resolution take a mutex and may
// allocate; the returned handles (*Counter, *Gauge, *Histogram) are the
// same lock-free primitives defined in metrics.go, so hot paths resolve
// their handles once at construction and observe without any map lookup
// or allocation. WritePrometheus snapshots every family under the
// registry locks and only then formats and writes, so no I/O ever runs
// under a mutex (the lockio vet rule).
package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// DurationBuckets is the default bucket layout for latency histograms,
// in seconds: 50µs to ~82s in powers of two, covering everything from a
// page-cache hit to a pathological multi-second stall.
var DurationBuckets = []float64{
	0.00005, 0.0001, 0.0002, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Label is one name="value" pair attached to a metric.
type Label struct {
	Name, Value string
}

// Registry holds named metric families. Families are created on first
// use and re-registering the same name with an identical shape returns
// the existing family, so independent subsystems can share series
// (e.g. every provider in a process feeds one store-latency histogram).
type Registry struct {
	consts []Label

	mu   sync.Mutex
	fams map[string]*family
}

type family struct {
	name       string
	help       string
	typ        string // "counter", "gauge" or "histogram"
	labelNames []string
	bounds     []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child
}

type child struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// NewRegistry returns an empty registry. The constant labels are merged
// into every exposed sample — use them for per-process identity, e.g.
// process="gateway".
func NewRegistry(constLabels ...Label) *Registry {
	for _, l := range constLabels {
		mustLabelName(l.Name)
	}
	cs := append([]Label(nil), constLabels...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Name < cs[j].Name })
	return &Registry{consts: cs, fams: make(map[string]*family)}
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct{ f *family }

// GaugeVec is a family of gauges distinguished by label values.
type GaugeVec struct{ f *family }

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct{ f *family }

// Counter registers (or returns) the counter family name.
func (r *Registry) Counter(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.register(name, help, "counter", nil, labelNames)}
}

// Gauge registers (or returns) the gauge family name.
func (r *Registry) Gauge(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, "gauge", nil, labelNames)}
}

// Histogram registers (or returns) the histogram family name with the
// given bucket upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	if len(bounds) == 0 {
		panic("metrics: histogram family needs at least one bucket bound")
	}
	return &HistogramVec{r.register(name, help, "histogram", bounds, labelNames)}
}

func (r *Registry) register(name, help, typ string, bounds []float64, labelNames []string) *family {
	mustMetricName(name)
	for _, ln := range labelNames {
		mustLabelName(ln)
		if typ == "histogram" && ln == "le" {
			panic("metrics: histogram label name \"le\" is reserved")
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || !equalStrings(f.labelNames, labelNames) || !equalFloats(f.bounds, bounds) {
			panic(fmt.Sprintf("metrics: family %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		typ:        typ,
		labelNames: append([]string(nil), labelNames...),
		bounds:     append([]float64(nil), bounds...),
		children:   make(map[string]*child),
	}
	r.fams[name] = f
	return f
}

func (f *family) resolve(values []string) *child {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("metrics: family %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.children[key]; ok {
		return ch
	}
	ch := &child{values: append([]string(nil), values...)}
	switch f.typ {
	case "counter":
		ch.c = new(Counter)
	case "gauge":
		ch.g = new(Gauge)
	case "histogram":
		ch.h = NewHistogram(f.bounds)
	}
	f.children[key] = ch
	return ch
}

// With returns the pre-resolved counter for the given label values,
// creating it on first use. Resolve once, observe forever.
func (v *CounterVec) With(values ...string) *Counter { return v.f.resolve(values).c }

// With returns the pre-resolved gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.resolve(values).g }

// With returns the pre-resolved histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.resolve(values).h }

// Sample is one exposed series: its label values (aligned with the
// family's LabelNames) and either a scalar value or histogram state.
type Sample struct {
	LabelValues []string

	// Scalar value for counters and gauges.
	Value float64

	// Histogram state: per-bucket counts (one trailing overflow bucket
	// aligned with the family Bounds), sum and total count.
	Counts []int64
	Sum    float64
	Count  int64
}

// FamilySnapshot is a point-in-time copy of one metric family.
type FamilySnapshot struct {
	Name       string
	Help       string
	Type       string // "counter", "gauge" or "histogram"
	LabelNames []string
	Bounds     []float64 // histograms only
	Samples    []Sample
}

// Snapshot copies every family and sample out of the registry. All locks
// are released by the time it returns, so callers may do arbitrary I/O
// with the result.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{
			Name:       f.name,
			Help:       f.help,
			Type:       f.typ,
			LabelNames: append([]string(nil), f.labelNames...),
			Bounds:     append([]float64(nil), f.bounds...),
		}
		f.mu.Lock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ch := f.children[k]
			s := Sample{LabelValues: append([]string(nil), ch.values...)}
			switch f.typ {
			case "counter":
				s.Value = float64(ch.c.Value())
			case "gauge":
				s.Value = ch.g.Value()
			case "histogram":
				_, s.Counts = ch.h.Buckets()
				s.Sum = ch.h.Sum()
				// Derive the total from the bucket counts themselves so the
				// cumulative _bucket series is always monotone up to the
				// le="+Inf" terminal even while observations race the scrape.
				for _, c := range s.Counts {
					s.Count += c
				}
			}
			fs.Samples = append(fs.Samples, s)
		}
		f.mu.Unlock()
		out = append(out, fs)
	}
	return out
}

// WritePrometheus emits the registry contents in the Prometheus text
// exposition format (version 0.0.4): # HELP and # TYPE lines followed by
// samples, histograms as cumulative _bucket{le=...} series terminated by
// le="+Inf" plus _sum and _count. The snapshot is taken first, so no
// lock is held while writing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	var b strings.Builder
	for _, fs := range snap {
		if len(fs.Samples) == 0 {
			continue
		}
		fmt.Fprintf(&b, "# HELP %s %s\n", fs.Name, escapeHelp(fs.Help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", fs.Name, fs.Type)
		for _, s := range fs.Samples {
			base := r.labelPairs(fs.LabelNames, s.LabelValues)
			switch fs.Type {
			case "counter", "gauge":
				b.WriteString(fs.Name)
				writeLabels(&b, base, "", "")
				b.WriteByte(' ')
				b.WriteString(formatValue(s.Value))
				b.WriteByte('\n')
			case "histogram":
				var cum int64
				for i, bound := range fs.Bounds {
					cum += s.Counts[i]
					b.WriteString(fs.Name)
					b.WriteString("_bucket")
					writeLabels(&b, base, "le", formatValue(bound))
					b.WriteByte(' ')
					b.WriteString(strconv.FormatInt(cum, 10))
					b.WriteByte('\n')
				}
				b.WriteString(fs.Name)
				b.WriteString("_bucket")
				writeLabels(&b, base, "le", "+Inf")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatInt(s.Count, 10))
				b.WriteByte('\n')
				b.WriteString(fs.Name)
				b.WriteString("_sum")
				writeLabels(&b, base, "", "")
				b.WriteByte(' ')
				b.WriteString(formatValue(s.Sum))
				b.WriteByte('\n')
				b.WriteString(fs.Name)
				b.WriteString("_count")
				writeLabels(&b, base, "", "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatInt(s.Count, 10))
				b.WriteByte('\n')
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns an http.Handler serving the registry at GET /metrics
// (any path), with the standard text exposition content type.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if req.Method == http.MethodHead {
			return
		}
		_ = r.WritePrometheus(w)
	})
}

// labelPairs merges the registry const labels with one sample's labels,
// sorted by name (const labels first at equal rank is irrelevant: names
// are unique).
func (r *Registry) labelPairs(names, values []string) []Label {
	out := make([]Label, 0, len(r.consts)+len(names))
	out = append(out, r.consts...)
	for i, n := range names {
		out = append(out, Label{n, values[i]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeLabels renders {a="x",b="y"} with the optional extra pair (used
// for le) merged into sorted position, or nothing when there are no
// labels at all.
func writeLabels(b *strings.Builder, pairs []Label, extraName, extraValue string) {
	if len(pairs) == 0 && extraName == "" {
		return
	}
	if extraName != "" {
		merged := make([]Label, 0, len(pairs)+1)
		i := 0
		for ; i < len(pairs) && pairs[i].Name < extraName; i++ {
			merged = append(merged, pairs[i])
		}
		merged = append(merged, Label{extraName, extraValue})
		merged = append(merged, pairs[i:]...)
		pairs = merged
	}
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabelValue(s string) string { return labelEscaper.Replace(s) }

func mustMetricName(name string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
}

func mustLabelName(name string) {
	if !validLabelName(name) || strings.HasPrefix(name, "__") {
		panic(fmt.Sprintf("metrics: invalid label name %q", name))
	}
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
