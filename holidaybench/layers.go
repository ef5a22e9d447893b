package main

import (
	"fmt"

	"repro/internal/service"
)

// spanAgg accumulates one span name over the kept requests of a traced
// phase. Durations are kept unweighted for percentiles; sums are weighted by
// how many requests each kept one stands for, so totals and ratios estimate
// the whole phase.
type spanAgg struct {
	durs        samples
	wDur, wN, w float64
}

func (a *spanAgg) add(s span, weight float64) {
	d := s.end - s.start
	a.durs = append(a.durs, d)
	a.wDur += weight * float64(d)
	a.wN += weight * float64(s.n)
	a.w += weight
}

// perN returns weighted nanoseconds per unit of work.
func (a *spanAgg) perN() float64 { return ratio(a.wDur, a.wN) }

// mean returns the weighted mean duration in nanoseconds.
func (a *spanAgg) mean() float64 { return ratio(a.wDur, a.w) }

func ratio(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// perLayer assembles the per-layer metrics of the traced phase pt. A
// metric of a layer the workload bypasses reads 0 and is marked n/a.
func perLayer(sys *system, pu, pt *phase, rec *recovery) *report {
	td := pt.trace
	var agg [numSpanNames]spanAgg
	var serveBin, serveJSON spanAgg
	self := map[string]float64{}
	for _, ss := range td.clients {
		var weight float64
		var root int
		for i, s := range ss {
			if s.parent < 0 {
				root, weight = i, float64(s.weight)
				self[layerOf[s.name]] += weight * float64(s.end-s.start)
			} else {
				d := weight * float64(s.end-s.start)
				self[layerOf[s.name]] += d
				self[layerOf[ss[root].name]] -= d
				if insideServe[s.name] {
					self["http"] -= d
				}
			}
			agg[s.name].add(s, weight)
			if s.name == spServe {
				if s.bin {
					serveBin.add(s, weight)
				} else {
					serveJSON.add(s, weight)
				}
			}
		}
	}
	parents := td.appendParents()
	for i, a := range td.appends {
		s := span{start: a.start, end: a.end, n: int32(a.records)}
		agg[spAppend].add(s, 1)
		d := float64(a.end - a.start)
		self["persist"] += d
		if parents[i].client >= 0 {
			self["service"] -= d // churn-batch spans are always kept, weight 1
		}
	}

	classic := sys.w.kind == service.KindClassic
	r := &report{}
	na := func(name, unit string, ok bool, v float64, note string) {
		if !ok {
			r.add(name, 0, unit, "n/a on this workload")
			return
		}
		r.add(name, v, unit, note)
	}
	quant := func(name string, s samples, q float64, ok bool) {
		if !ok {
			r.add(name, 0, "us", "n/a on this workload")
			return
		}
		s = s.sorted()
		if q == 0.5 {
			r.quantileUS(name, s.at(q))
		} else {
			r.quantileUS(name, s.tail(q))
		}
	}
	writes := float64(pt.writes)
	busy := float64(agg[spCoreFreeze].durs.sum()) / (pt.elapsed.Seconds() * 1e9 * float64(sys.w.clients))

	quant("core.freeze_us_p50", agg[spCoreFreeze].durs, 0.5, classic)
	quant("core.freeze_us_p99", agg[spCoreFreeze].durs, 0.99, classic)
	na("core.freezes", "count", classic, float64(pt.delta.misses), "Stats().CacheMisses over the phase")
	na("core.freeze_busy_frac", "frac", classic, busy, "freeze time over client time")
	na("core.window_ns_per_row", "ns", classic, agg[spCoreWindow].perN(), fmt.Sprintf("%d window spans", len(agg[spCoreWindow].durs)))
	nextNs := float64(agg[spCoreNext].durs.sorted().at(0.5).Value)
	na("core.next_ns", "ns", classic, nextNs, fmt.Sprintf("p50 of %d next spans", len(agg[spCoreNext].durs)))
	na("core.recolorings_per_write", "count", classic, ratio(float64(pt.delta.repairs), writes), fmt.Sprintf("over %d writes", pt.writes))

	hits, misses := float64(pt.delta.hits), float64(pt.delta.misses)
	r.add("service.cache_hit_ratio", ratio(hits, hits+misses), "ratio", fmt.Sprintf("%.0f hits, %.0f misses", hits, misses))
	r.add("service.invalidations_per_write", ratio(float64(pt.delta.versions), writes), "count", fmt.Sprintf("over %d writes", pt.writes))
	quant("service.read_stall_us_p99", agg[spSchedule].durs, 0.99, true)
	batched := sys.w.batch > 0
	quant("service.churn_batch_us_p50", agg[spChurnBatch].durs, 0.5, batched)
	quant("service.churn_batch_us_p99", agg[spChurnBatch].durs, 0.99, batched)
	na("service.churn_batch_ops", "ops", batched, ratio(agg[spChurnBatch].wN, agg[spChurnBatch].w), "edits per ChurnBatch call")

	journaled := sys.w.journal
	quant("persist.append_us_p50", agg[spAppend].durs, 0.5, journaled)
	quant("persist.append_us_p99", agg[spAppend].durs, 0.99, journaled)
	na("persist.appends", "count", journaled, float64(len(td.appends)), "journal appends over the phase")
	na("persist.records_per_append", "count", journaled, ratio(float64(pt.walRecords), float64(len(td.appends))), "")
	na("persist.wal_bytes_per_record", "B", journaled, ratio(float64(pt.walBytes), float64(pt.walRecords)), "WAL growth over records")
	r.add("persist.load_s", rec.loadS, "s", fmt.Sprintf("median of %d Store.Load of %s", rec.runs, rec.source))
	r.add("persist.snapshot_save_s", rec.saveS, "s", "one SaveSnapshot of the final state")

	polyKind := !classic
	quant("poly.freeze_us_p50", agg[spPolyFreeze].durs, 0.5, polyKind)
	quant("poly.freeze_us_p99", agg[spPolyFreeze].durs, 0.99, polyKind)
	na("poly.window_ns_per_row", "ns", polyKind, agg[spPolyWindow].perN(),
		fmt.Sprintf("WindowBits walk probed beside %d traced binary window reads", len(agg[spPolyWindow].durs)))
	na("poly.relayerings_per_write", "count", polyKind, ratio(float64(pt.delta.repairs), writes), fmt.Sprintf("over %d writes", pt.writes))

	served := sys.w.served
	quant("http.serve_us_p50.bin", serveBin.durs, 0.5, served)
	quant("http.serve_us_p50.json", serveJSON.durs, 0.5, served)
	na("http.resp_bytes_per_op", "B", served, ratio(agg[spServe].wN, agg[spServe].w), "response body bytes per request")
	na("wire.encode_ns_per_frame", "ns", served, agg[spWireRespEncode].mean(),
		fmt.Sprintf("window response frame encoded as the handler does, probed beside %d traced reads", len(agg[spWireRespEncode].durs)))
	na("wire.decode_ns_per_frame", "ns", served, agg[spWireRespDecode].mean(),
		fmt.Sprintf("client's response-frame split and header decode, %d traced frames", len(agg[spWireRespDecode].durs)))

	r.add("client.gen_ns_per_op", agg[spGen].mean(), "ns", "benchkit.OpGen.Next per op")
	requests := float64(pt.requests)
	for _, l := range layers {
		note := "self time per request, spans estimated from the sample"
		if l == "http" {
			note += "; window walks and binary window encodes are probed and moved to poly and wire"
		}
		r.add(l+".self_us_per_op", self[l]/requests/1e3, "us", note)
	}
	r.add("trace.overhead_frac", 1-pt.throughput()/pu.throughput(), "frac",
		fmt.Sprintf("traced %.0f ops/s vs untraced %.0f ops/s", pt.throughput(), pu.throughput()))
	return r
}
