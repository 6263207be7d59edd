// Package viz implements the paper's visualization tool: terminal
// renderings of the most relevant introspection outputs — physical
// parameters (CPU load, storage space), per-provider state, BLOB access
// patterns and the distribution of BLOBs across providers.
package viz

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"blobseer/internal/chunk"
	"blobseer/internal/introspect"
	"blobseer/internal/metrics"
	"blobseer/internal/vmanager"
)

var sparks = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a one-line unicode sparkline of at most
// width cells (values are bucketed by mean when longer).
func Sparkline(values []float64, width int) string {
	if len(values) == 0 || width <= 0 {
		return ""
	}
	buck := bucket(values, width)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range buck {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	var b strings.Builder
	for _, v := range buck {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparks)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparks) {
			idx = len(sparks) - 1
		}
		b.WriteRune(sparks[idx])
	}
	return b.String()
}

func bucket(values []float64, width int) []float64 {
	if len(values) <= width {
		return values
	}
	out := make([]float64, width)
	for i := 0; i < width; i++ {
		lo := i * len(values) / width
		hi := (i + 1) * len(values) / width
		if hi <= lo {
			hi = lo + 1
		}
		var sum float64
		for _, v := range values[lo:hi] {
			sum += v
		}
		out[i] = sum / float64(hi-lo)
	}
	return out
}

// Bar renders a horizontal bar of v relative to max, width cells.
func Bar(v, max float64, width int) string {
	if max <= 0 || width <= 0 {
		return ""
	}
	n := int(v / max * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("█", n) + strings.Repeat("·", width-n)
}

// SeriesPanel renders a titled sparkline with min/mean/max annotations.
func SeriesPanel(title string, pts []metrics.Point, width int) string {
	values := make([]float64, len(pts))
	for i, p := range pts {
		values[i] = p.Value
	}
	st := metrics.Summarize(pts)
	return fmt.Sprintf("%-24s %s  min=%.1f mean=%.1f max=%.1f",
		title, Sparkline(values, width), st.Min, st.Mean, st.Max)
}

// ProviderPanel renders the per-provider introspection state: storage
// space, CPU load and transfer activity.
func ProviderPanel(states []introspect.ProviderState, width int) string {
	var b strings.Builder
	b.WriteString("PROVIDERS (introspection view)\n")
	if len(states) == 0 {
		b.WriteString("  (no providers reporting)\n")
		return b.String()
	}
	var maxSpace float64
	for _, s := range states {
		maxSpace = math.Max(maxSpace, s.Space)
	}
	if maxSpace == 0 {
		maxSpace = 1
	}
	for _, s := range states {
		fmt.Fprintf(&b, "  %-14s space %s %10.0f B   cpu %4.0f%%   act %.1f\n",
			s.Node, Bar(s.Space, maxSpace, width), s.Space, s.CPULoad*100, s.ActiveAvg)
	}
	return b.String()
}

// AccessPanel renders BLOB access patterns, hottest first.
func AccessPanel(stats []introspect.AccessStats) string {
	var b strings.Builder
	b.WriteString("BLOB ACCESS PATTERNS (hottest first)\n")
	if len(stats) == 0 {
		b.WriteString("  (no accesses recorded)\n")
		return b.String()
	}
	for _, st := range stats {
		users := make([]string, 0, len(st.Users))
		for u := range st.Users {
			users = append(users, u)
		}
		sort.Strings(users)
		fmt.Fprintf(&b, "  blob %-4d reads=%-6d writes=%-6d in=%-10d out=%-10d users=%s\n",
			st.Blob, st.Reads, st.Writes, st.BytesWritten, st.BytesRead,
			strings.Join(users, ","))
	}
	return b.String()
}

// MetricsPanel renders a registry snapshot: counters and gauges as
// name/value lines, histograms as a bucket-count sparkline with count,
// mean and approximate p50/p99 (interpolated within buckets, the same
// estimate a Prometheus histogram_quantile gives).
func MetricsPanel(snap []metrics.FamilySnapshot, width int) string {
	var b strings.Builder
	b.WriteString("METRICS (registry snapshot)\n")
	if len(snap) == 0 {
		b.WriteString("  (no metric families registered)\n")
		return b.String()
	}
	for _, fs := range snap {
		for _, s := range fs.Samples {
			name := fs.Name
			if len(s.LabelValues) > 0 {
				pairs := make([]string, len(s.LabelValues))
				for i, v := range s.LabelValues {
					pairs[i] = fs.LabelNames[i] + "=" + v
				}
				name += "{" + strings.Join(pairs, ",") + "}"
			}
			switch fs.Type {
			case "histogram":
				if s.Count == 0 {
					continue
				}
				values := make([]float64, len(s.Counts))
				for i, c := range s.Counts {
					values[i] = float64(c)
				}
				mean := s.Sum / float64(s.Count)
				fmt.Fprintf(&b, "  %-52s %s n=%-8d mean=%-10.3g p50=%-10.3g p99=%.3g\n",
					name, Sparkline(values, width), s.Count, mean,
					bucketQuantile(fs.Bounds, s.Counts, 0.5),
					bucketQuantile(fs.Bounds, s.Counts, 0.99))
			default:
				fmt.Fprintf(&b, "  %-52s %g\n", name, s.Value)
			}
		}
	}
	return b.String()
}

// bucketQuantile estimates quantile q from histogram bucket counts
// (len(counts) == len(bounds)+1, trailing overflow). The overflow bucket
// is reported at the last finite bound — without the per-histogram max
// the snapshot carries no tighter cap.
func bucketQuantile(bounds []float64, counts []int64, q float64) float64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 || len(bounds) == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum int64
	for i, c := range counts {
		cum += c
		if float64(cum) >= rank {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			frac := (rank - float64(cum-c)) / float64(c)
			return lo + (bounds[i]-lo)*frac
		}
	}
	return bounds[len(bounds)-1]
}

// Distribution counts the chunks of a BLOB's latest version per provider.
func Distribution(vm *vmanager.Manager, blob uint64) (map[string]int, error) {
	latest, err := vm.Latest(blob)
	if err != nil {
		return nil, err
	}
	tree, err := vm.Tree(blob)
	if err != nil {
		return nil, err
	}
	out := map[string]int{}
	err = tree.Walk(tree.Root(latest.Version, latest.Size), func(_ int64, d chunk.Desc) error {
		for _, p := range d.Providers {
			out[p]++
		}
		return nil
	})
	return out, err
}

// DistributionPanel renders the chunk distribution of a BLOB.
func DistributionPanel(vm *vmanager.Manager, blob uint64, width int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "BLOB %d CHUNK DISTRIBUTION\n", blob)
	dist, err := Distribution(vm, blob)
	if err != nil {
		fmt.Fprintf(&b, "  error: %v\n", err)
		return b.String()
	}
	if len(dist) == 0 {
		b.WriteString("  (empty blob)\n")
		return b.String()
	}
	providers := make([]string, 0, len(dist))
	max := 0
	for p, n := range dist {
		providers = append(providers, p)
		if n > max {
			max = n
		}
	}
	sort.Strings(providers)
	for _, p := range providers {
		fmt.Fprintf(&b, "  %-14s %s %d\n", p, Bar(float64(dist[p]), float64(max), width), dist[p])
	}
	return b.String()
}

// Dashboard renders the full visualization-tool view over an
// introspector, a version manager and the aggregate throughput series.
func Dashboard(in *introspect.Introspector, vm *vmanager.Manager, width int) string {
	var b strings.Builder
	b.WriteString(strings.Repeat("=", 72) + "\n")
	b.WriteString("BlobSeer introspection dashboard\n")
	b.WriteString(strings.Repeat("=", 72) + "\n")
	fmt.Fprintf(&b, "system storage: %.0f B   mean load: %.2f transfers/provider\n\n",
		in.SystemStorage(), in.MeanLoad())
	b.WriteString(ProviderPanel(in.Providers(), width))
	b.WriteString("\n")
	b.WriteString(AccessPanel(in.HotBlobs(10)))
	if vm != nil {
		for _, blob := range vm.Blobs() {
			b.WriteString("\n")
			b.WriteString(DistributionPanel(vm, blob, width))
		}
	}
	return b.String()
}
