package replay

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// ReadResults reads the run results in the given -out files.
func ReadResults(paths []string) ([]Result, error) {
	var out []Result
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(f)
		for {
			var r Result
			if err := dec.Decode(&r); err == io.EOF {
				break
			} else if err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			out = append(out, r)
		}
		f.Close()
	}
	return out, nil
}

// set is one side's values of one metric on one workload.
type set struct {
	med, q1, q3 float64
	spread      float64 // (max−min)/median
}

func newSet(v []float64) set {
	s := sortedCopy(v)
	st := set{med: quantile(s, 0.5), q1: quantile(s, 0.25), q3: quantile(s, 0.75)}
	if st.med != 0 {
		st.spread = (s[len(s)-1] - s[0]) / st.med
	}
	return st
}

// Compare prints, for every workload × end-to-end metric, each set's median
// and quartiles, how much worse B's median is than A's (negative: better),
// and each set's own spread, (max−min)/median. It fails if the medians differ
// by more than the metric's bound either way — two sets of one commit must
// agree, and a before/after that differs has something to explain — or if
// either set's spread exceeds it: such a metric is unresolved on that
// workload, not unchanged. A bound above 0 replaces every metric's own.
func Compare(w io.Writer, a, b []Result, bound float64) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tB worse by\tA spread\tB spread\tbound\t")
	var bad []string
	for _, wl := range Workloads {
		for _, m := range EndToEnd {
			if bound > 0 {
				m.Bound = bound
			}
			pick := func(rs []Result) []float64 {
				var v []float64
				for _, r := range rs {
					if val, ok := r.Metrics[m.Name]; ok && r.Workload == wl.Name && !r.Trace {
						v = append(v, val.Value)
					}
				}
				return v
			}
			va, vb := pick(a), pick(b)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := newSet(va), newSet(vb)
			worse := (sb.med - sa.med) / sa.med
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			switch {
			case worse > m.Bound:
				verdict = " REGRESSED"
			case worse < -m.Bound:
				verdict = " IMPROVED"
			}
			if sa.spread > m.Bound || sb.spread > m.Bound {
				verdict += " NOISY"
			}
			if verdict != "" {
				bad = append(bad, fmt.Sprintf("%s %s:%s", wl.Name, m.Name, verdict))
			}
			fmt.Fprintf(tw, "%s\t%s %s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%%s\t\n",
				wl.Name, m.Name, m.Unit, sa.med, sa.q1, sa.q3, sb.med, sb.q1, sb.q3,
				100*worse, 100*sa.spread, 100*sb.spread, 100*m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(bad) > 0 {
		return errors.New("outside bounds: " + strings.Join(bad, "; "))
	}
	return nil
}
