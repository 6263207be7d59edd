package replay

import (
	"bufio"
	"fmt"
	"os"
	"sort"
)

// maxGCBusy is the share of a phase lifecycle passes may take before they
// count as running back to back.
const maxGCBusy = 0.9

// layerStats is what the traced phase's spans say about each layer, over the
// closed-loop ops that completed in the phase and passed.
type layerStats struct {
	ops   int
	spans int

	// Critical-path self time summed over the ops, ns.
	httpSelf, s3Self, rpcSelf, diskSelf int64

	s3Spans        int
	s3Span, s3TTFB []float64 // ms, primary op only, sorted
	s3Errors       int

	stores, fetches     int
	storeMs, fetchMs    []float64 // sorted
	rpcBusy, rpcCovered int64     // ns: summed span time; union per request
	rpcBytes, rpcErrors int64
	puts, gets          int
	putMs, getMs        []float64 // sorted
	putBytes, userPutB  int64
	userBytes           int64
}

type provChunk struct {
	prov  uint8
	chunk uint64
}

// analyze attributes the traced phase's spans to requests and computes the
// per-layer figures. The four self times sum to HTTP latency by construction
// (see selfTimes), so what it checks is that the spans are there and attached:
// a layer that reports none although ops ran, an op without its s3gate span,
// an rpc span under no request or more than a tenth of the diskstore spans
// under no rpc span all mean a wrapper is being bypassed — a renamed
// method, say — and the missing time is being booked to the wrong layer.
func analyze(spans []Span, conns []*conn, w Workload, p phaseStats) (layerStats, error) {
	la := layerStats{spans: len(spans)}

	s3 := make(map[uint64]int)      // request → its s3gate span
	rpcOf := make(map[uint64][]int) // request → its rpc spans
	rpcAt := make(map[provChunk][]int)
	disk := make(map[int][]int) // rpc span → the diskstore spans inside it
	for i, s := range spans {
		switch s.Layer {
		case LayerS3gate:
			s3[s.Req] = i
			if s.Status >= 400 {
				la.s3Errors++
			}
		case LayerRPC:
			if s.Req == 0 {
				continue // the control plane's health ping
			}
			rpcOf[s.Req] = append(rpcOf[s.Req], i)
			k := provChunk{s.Prov, s.Chunk}
			rpcAt[k] = append(rpcAt[k], i)
			if s.Err {
				la.rpcErrors++
			}
		}
	}
	var diskSpans, diskOrphans int
	for i, s := range spans {
		if s.Layer != LayerDiskstore {
			continue
		}
		diskSpans++
		diskOrphans++
		for _, r := range rpcAt[provChunk{s.Prov, s.Chunk}] {
			if spans[r].Start <= s.Start && s.End <= spans[r].End {
				disk[r] = append(disk[r], i)
				diskOrphans--
				break
			}
		}
	}
	for req := range rpcOf {
		if _, ok := s3[req]; !ok {
			return la, fmt.Errorf("request %d has rpc spans and no s3gate span", req)
		}
	}
	// A store call in flight when tracing came on has a diskstore span and
	// no rpc span, and the control plane's repairs reach the stores
	// in-process; a bypassed Store or Fetch override orphans every span of
	// its direction.
	if diskOrphans > diskSpans/10+providers*Conns {
		return la, fmt.Errorf("%d of %d diskstore spans lie inside no rpc span", diskOrphans, diskSpans)
	}

	ms := func(s Span) float64 { return float64(s.End-s.Start) / 1e6 }
	iv := func(s Span) interval { return interval{s.Start, s.End} }
	for _, c := range conns {
		for _, h := range c.samples {
			if h.end < p.lo.at || h.end >= p.hi.at || !h.ok || h.churn || h.req == 0 {
				continue
			}
			la.ops++
			la.userBytes += int64(h.bytes)
			if h.kind == OpPut {
				la.userPutB += int64(h.bytes)
			}

			var s3iv, rpciv, diskiv []interval
			if i, ok := s3[h.req]; ok {
				s := spans[i]
				s3iv = append(s3iv, iv(s))
				la.s3Spans++
				if h.kind == w.Primary {
					la.s3Span = append(la.s3Span, ms(s))
					la.s3TTFB = append(la.s3TTFB, float64(s.First-s.Start)/1e6)
				}
			}
			for _, r := range rpcOf[h.req] {
				s := spans[r]
				rpciv = append(rpciv, iv(s))
				la.rpcBusy += s.End - s.Start
				la.rpcBytes += int64(s.Bytes)
				if s.Op == spanStore {
					la.stores++
					la.storeMs = append(la.storeMs, ms(s))
				} else {
					la.fetches++
					la.fetchMs = append(la.fetchMs, ms(s))
				}
				for _, di := range disk[r] {
					ds := spans[di]
					diskiv = append(diskiv, iv(ds))
					if ds.Op == spanPut {
						la.puts++
						la.putMs = append(la.putMs, ms(ds))
						la.putBytes += int64(ds.Bytes)
					} else {
						la.gets++
						la.getMs = append(la.getMs, ms(ds))
					}
				}
			}
			whole := interval{h.start, h.end}
			a, b, c, d := selfTimes(whole, s3iv, rpciv, diskiv)
			la.httpSelf += a
			la.s3Self += b
			la.rpcSelf += c
			la.diskSelf += d
			la.rpcCovered += totalLen(union(rpciv, whole))
		}
	}
	for _, v := range []*[]float64{&la.s3Span, &la.s3TTFB, &la.storeMs, &la.fetchMs, &la.putMs, &la.getMs} {
		sort.Float64s(*v)
	}

	// Only an op already in flight when tracing came on carries no request ID.
	if la.ops == 0 || la.ops < p.ops-Conns {
		return la, fmt.Errorf("%d of the phase's %d ops carry a request ID", la.ops, p.ops)
	}
	if la.s3Spans != la.ops {
		return la, fmt.Errorf("%d s3gate spans for %d ops", la.s3Spans, la.ops)
	}
	for name, n := range map[string]int{"rpc": la.stores + la.fetches, "diskstore": la.puts + la.gets} {
		if n == 0 {
			return la, fmt.Errorf("%s recorded no span over %d ops: a wrapper is being bypassed", name, la.ops)
		}
	}
	return la, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayer turns the traced phase into the per-layer metrics. ref is the
// untraced reference phase of the same run.
func perLayer(res *Result, w Workload, la layerStats, p, ref phaseStats, passes []pass, diskEnd, liveBytes int64) (map[string]Value, error) {
	n := int64(la.ops)
	perOp := func(ns int64) float64 { return float64(ns) / 1e6 / float64(n) }
	for name, v := range map[string][]float64{
		"http.lat_p95_ms": p.lat, "http.lat_p99_ms": p.lat, "http.churn_late_p50_ms": p.late,
		"s3gate.span_p50_ms": la.s3Span, "s3gate.ttfb_p50_ms": la.s3TTFB,
		"rpc.store_p50_ms": la.storeMs, "rpc.fetch_p50_ms": la.fetchMs,
		"diskstore.put_p50_ms": la.putMs, "diskstore.get_p50_ms": la.getMs,
	} {
		res.Samples[name] = len(v)
	}

	var passMs []float64
	var busy int64
	for _, g := range passes {
		if g.end < p.lo.at || g.end >= p.hi.at {
			continue
		}
		passMs = append(passMs, float64(g.end-g.start)/1e6)
		busy += g.end - max(g.start, p.lo.at)
	}
	sort.Float64s(passMs)
	res.Samples["gc.pass_p50_ms"] = len(passMs)
	busyFrac := ratio(busy, p.hi.at-p.lo.at)
	// Passes are a noise control only while each fits inside its period:
	// then their number is fixed by the clock, not by the program's speed.
	if w.GCEvery > 0 {
		if want := max(int((p.hi.at-p.lo.at)/int64(w.GCEvery))-1, 1); len(passMs) < want || busyFrac > maxGCBusy {
			return nil, fmt.Errorf("%s schedules a GC pass every %s: %d of %d completed, GC busy %.0f%% of the phase",
				w.Name, w.GCEvery, len(passMs), want, 100*busyFrac)
		}
	}

	m := map[string]float64{
		"http.self_ms_per_op":    perOp(la.httpSelf),
		"http.lat_p95_ms":        quantile(p.lat, 0.95),
		"http.lat_p99_ms":        quantile(p.lat, 0.99),
		"http.lat_max_ms":        quantile(p.lat, 1),
		"http.churn_late_p50_ms": quantile(p.late, 0.5),
		"http.fail_frac":         ratio(int64(res.Failed), int64(res.Attempted)),

		"s3gate.span_p50_ms":    quantile(la.s3Span, 0.5),
		"s3gate.ttfb_p50_ms":    quantile(la.s3TTFB, 0.5),
		"s3gate.self_ms_per_op": perOp(la.s3Self),
		"s3gate.errors":         float64(la.s3Errors),

		"rpc.store_calls_per_op":  ratio(int64(la.stores), n),
		"rpc.fetch_calls_per_op":  ratio(int64(la.fetches), n),
		"rpc.store_p50_ms":        quantile(la.storeMs, 0.5),
		"rpc.fetch_p50_ms":        quantile(la.fetchMs, 0.5),
		"rpc.self_ms_per_op":      perOp(la.rpcSelf),
		"rpc.busy_ms_per_op":      perOp(la.rpcBusy),
		"rpc.inflight_mean":       ratio(la.rpcBusy, la.rpcCovered),
		"rpc.bytes_per_user_byte": ratio(la.rpcBytes, la.userBytes),
		"rpc.errors":              float64(la.rpcErrors),

		"diskstore.put_calls_per_op":        ratio(int64(la.puts), n),
		"diskstore.get_calls_per_op":        ratio(int64(la.gets), n),
		"diskstore.put_p50_ms":              quantile(la.putMs, 0.5),
		"diskstore.get_p50_ms":              quantile(la.getMs, 0.5),
		"diskstore.self_ms_per_op":          perOp(la.diskSelf),
		"diskstore.put_bytes_per_user_byte": ratio(la.putBytes, la.userPutB),
		"diskstore.disk_mb_end":             float64(diskEnd) / 1e6,
		"diskstore.space_amp":               ratio(diskEnd, liveBytes*replicas),

		"gc.passes":       float64(len(passMs)),
		"gc.pass_p50_ms":  quantile(passMs, 0.5),
		"gc.busy_frac":    busyFrac,
		"gc.chunks_swept": float64(p.hi.reclaimed - p.lo.reclaimed),
		"gc.reclaimed_mb": float64(p.hi.storeIn-p.lo.storeIn-(p.hi.storeLive-p.lo.storeLive)) / 1e6,

		"proc.cpu_user_ms_per_op": p.perOp(p.hi.user - p.lo.user),
		"proc.cpu_sys_ms_per_op":  p.perOp(p.hi.sys - p.lo.sys),
		"proc.alloc_kb_per_op":    float64(p.hi.alloc-p.lo.alloc) / 1024 / float64(max(p.ops, 1)),
		"proc.gc_cycles":          float64(p.hi.numGC - p.lo.numGC),
		"proc.gc_pause_ms":        float64(p.hi.pauseNs-p.lo.pauseNs) / 1e6,
		"proc.peak_rss_mb":        float64(p.hi.maxRSSKB) * 1024 / 1e6,

		"trace.spans":        float64(la.spans),
		"trace.overhead_pct": 0,
	}
	if ref.opsPerS > 0 {
		m["trace.overhead_pct"] = 100 * (ref.opsPerS - p.opsPerS) / ref.opsPerS
	}
	return values(PerLayer, m), nil
}

// writeTrace writes the traced phase — the load generator's own HTTP spans
// and every layer span — as JSON lines.
func writeTrace(path string, spans []Span, conns []*conn) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, c := range conns {
		for _, h := range c.samples {
			if h.req == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, `{"layer":"http","op":%q,"req":%d,"start_ns":%d,"first_ns":%d,"end_ns":%d,"bytes":%d,"ok":%t}`+"\n",
				h.kind, h.req, h.start, h.first, h.end, h.bytes, h.ok); err != nil {
				return err
			}
		}
	}
	if err := writeSpans(w, spans); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
