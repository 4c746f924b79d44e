package main

import (
	"sort"
	"time"
)

// spanKey identifies the store call a child span belongs to: the same
// operation on the same block of the same object, one boundary further out.
type spanKey struct {
	kind    opKind
	backend int // -1 when matching across all backends
	job     string
	rank    int
	id      uint64
	idx     int
}

func keyOf(s span, backend int) spanKey {
	return spanKey{s.kind, backend, s.job, s.rank, s.id, s.idx}
}

// opBreakdown is one client operation split over the layers.
type opBreakdown struct {
	op      clientOp
	buckets [numBuckets]time.Duration
	handler time.Duration // the gateway handler span of the op
	bodyIO  time.Duration // request-body reads and response writes inside the handler
	durable time.Duration // saves: send → last shardstore write of the checkpoint done
}

// attributeSpans hands every span to the client operation that caused it
// and splits each operation's latency over the layers. A span belongs to
// an operation of the same job and rank that was in flight when the span
// began. Codec spans carry no key; time alone decides for them. Spans no
// operation was waiting for,
// such as the drain behind an async ack, stay background work: they count
// in busy time and call counts, not in any latency.
func (b *bench) attributeSpans(ops []clientOp, spans []span) []opBreakdown {
	byJob := make(map[string][]int)
	for i, s := range spans {
		job := s.job
		if s.layer == layerCompress {
			job = jobKey
		}
		byJob[job] = append(byJob[job], i)
	}
	for _, idx := range byJob {
		sort.Slice(idx, func(i, j int) bool { return spans[idx[i]].start < spans[idx[j]].start })
	}
	lastPut := make(map[spanKey]time.Duration)
	for _, s := range spans {
		if s.layer == layerShard && s.kind == opPut {
			k := spanKey{job: s.job, rank: s.rank, id: s.id}
			if s.end > lastPut[k] {
				lastPut[k] = s.end
			}
		}
	}

	out := make([]opBreakdown, len(ops))
	var mine []span
	for oi, op := range ops {
		idx := byJob[jobKey]
		first := sort.Search(len(idx), func(i int) bool { return spans[idx[i]].start >= op.start })
		mine = mine[:0]
		bd := opBreakdown{op: op}
		for _, si := range idx[first:] {
			s := &spans[si]
			if s.start > op.end {
				break
			}
			if s.layer != layerCompress && s.rank != op.rank {
				continue
			}
			s.op = oi
			mine = append(mine, *s)
			switch {
			case s.layer == layerGateway && s.kind == op.kind:
				bd.handler = s.end - s.start
			case s.layer == layerHTTP:
				bd.bodyIO += s.end - s.start
			}
		}
		bd.buckets = attribute(op.interval(), mine)
		if end, ok := lastPut[spanKey{job: jobKey, rank: op.rank, id: op.id}]; ok && op.kind == opSave {
			bd.durable = end - op.start
		}
		out[oi] = bd
	}
	return out
}

// misplacedShare checks the attribution against what it did not read: the
// checkpoint ID a span carries. Of all span time begun inside the given
// phase windows it returns the share that sits in the wrong place: claimed
// by an operation on another checkpoint than the span's own, or claimed by
// no operation at all without being the drain behind an async ack (which
// nobody waits for, by design). 0 means every span is where its key says.
func (b *bench) misplacedShare(ops []clientOp, spans []span, windows []interval) float64 {
	acked := make(map[spanKey]bool)
	if b.w.async {
		for _, op := range ops {
			if op.kind == opSave {
				acked[spanKey{job: jobKey, rank: op.rank, id: op.id}] = true
			}
		}
	}
	var total, misplaced time.Duration
	for _, s := range spans {
		inside := false
		for _, w := range windows {
			inside = inside || (s.start >= w.start && s.start < w.end)
		}
		if !inside {
			continue
		}
		d := s.end - s.start
		total += d
		switch {
		case s.op >= 0 && s.id != 0 && s.id != ops[s.op].id:
			misplaced += d
		case s.op < 0 && !acked[spanKey{job: s.job, rank: s.rank, id: s.id}]:
			misplaced += d
		}
	}
	return ratio(float64(misplaced), float64(total))
}

// layerTotals are sums over every span of a traced round, background work
// included.
type layerTotals struct {
	calls [numLayers][numKinds]int
	busy  [numLayers][numKinds]time.Duration
	bytes [numLayers][numKinds]int64
	// self time: shardstore spans minus their iod calls, iod calls minus
	// the backing-store call they caused.
	shardSelf, wireSelf [numKinds]time.Duration
	shardCover          [numKinds]time.Duration // union of the shardstore calls
	rtt                 [numKinds][]float64     // iod call durations, ms
}

func sumLayers(spans []span) layerTotals {
	var t layerTotals
	iodCalls := make(map[spanKey][]interval)     // by store call, all backends
	backingCalls := make(map[spanKey][]interval) // by store call and backend
	for _, s := range spans {
		t.calls[s.layer][s.kind]++
		t.busy[s.layer][s.kind] += s.end - s.start
		t.bytes[s.layer][s.kind] += int64(s.bytes)
		switch s.layer {
		case layerIod:
			iodCalls[keyOf(s, -1)] = append(iodCalls[keyOf(s, -1)], s.interval())
			t.rtt[s.kind] = append(t.rtt[s.kind], ms(s.end-s.start))
		case layerIostore:
			backingCalls[keyOf(s, s.backend)] = append(backingCalls[keyOf(s, s.backend)], s.interval())
		}
	}
	var shardCalls [numKinds][]interval
	for _, s := range spans {
		switch s.layer {
		case layerShard:
			t.shardSelf[s.kind] += selfTime(s.interval(), iodCalls[keyOf(s, -1)])
			shardCalls[s.kind] = append(shardCalls[s.kind], s.interval())
		case layerIod:
			t.wireSelf[s.kind] += selfTime(s.interval(), backingCalls[keyOf(s, s.backend)])
		}
	}
	for kind, ivs := range shardCalls {
		t.shardCover[kind] = unionLen(ivs)
	}
	return t
}

// ratio is num/den, 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayerMetrics are the traced run's numbers. Everything per-operation
// comes from the traced rounds; proc.* and the base of trace.*_overhead
// come from the untraced rounds of the same run.
func (b *bench) perLayerMetrics(rounds []roundStats) []metric {
	traced := func(rs roundStats) bool { return rs.traced }
	var tr, un []roundStats
	for _, rs := range rounds {
		if rs.traced {
			tr = append(tr, rs)
		} else {
			un = append(un, rs)
		}
	}
	var gb float64 // logical GB saved in traced rounds, and restored again
	var ckpts, stored float64
	var saveWall, restoreWall time.Duration
	var saveWins, restoreWins []interval
	for _, rs := range tr {
		saveWins = append(saveWins, rs.saveWin)
		restoreWins = append(restoreWins, rs.restoreWin)
		gb += float64(rs.bytes) / 1e9
		ckpts += float64(rs.ckpts)
		stored += float64(rs.stored)
		saveWall += rs.save.wall
		restoreWall += rs.restore.wall
	}

	spans := b.st.rec.spans
	ops := b.opsOf(rounds, traced)
	breakdown := b.attributeSpans(ops, spans)
	tot := sumLayers(spans)

	// Per-operation samples. The breakdown of the typical operation is the
	// mean split of the middle fifth of the operations by latency: as deaf
	// to the tail as a median, but its shares add up, which per-layer
	// medians of anti-correlated shares (compress and the store trade an
	// overlap between them from one operation to the next) do not.
	var byKind [2][]opBreakdown // [0] saves, [1] loads
	var handler, bodyIO [2][]float64
	var durable []float64
	for _, bd := range breakdown {
		switch bd.op.kind {
		case opSave:
			byKind[0] = append(byKind[0], bd)
			handler[0] = append(handler[0], ms(bd.handler))
			bodyIO[0] = append(bodyIO[0], ms(bd.bodyIO))
			if bd.durable > 0 {
				durable = append(durable, ms(bd.durable))
			}
		case opLoad:
			byKind[1] = append(byKind[1], bd)
			handler[1] = append(handler[1], ms(bd.handler))
			bodyIO[1] = append(bodyIO[1], ms(bd.bodyIO))
		}
	}
	var self [2][numBuckets]float64 // ms
	var typical [2]int
	for k, bds := range byKind {
		sort.Slice(bds, func(i, j int) bool { return bds[i].op.end-bds[i].op.start < bds[j].op.end-bds[j].op.start })
		mid := bds[len(bds)*2/5 : len(bds)-len(bds)*2/5]
		typical[k] = len(mid)
		for _, bd := range mid {
			for bk, d := range bd.buckets {
				self[k][bk] += ms(d) / float64(len(mid))
			}
		}
	}
	acks := b.latencies(rounds, opSave, traced)
	loads := b.latencies(rounds, opLoad, traced)

	var proc phaseCost
	var unOps int
	var unGB float64 // logical GB saved + restored in the untraced rounds
	for _, rs := range un {
		proc.add(rs.save)
		proc.add(rs.restore)
		unOps += 2 * rs.ckpts
		unGB += 2 * float64(rs.bytes) / 1e9
	}
	// Rounds are all the same size, so the ratio of the median rounds' times
	// is the ratio of their rates; traced and untraced rounds alternate, so
	// the host treats both kinds alike.
	overhead := func(seconds func(roundStats) float64) float64 {
		return 1 - ratio(median(perRound(un, seconds)), median(perRound(tr, seconds)))
	}

	sec := func(d time.Duration) float64 { return d.Seconds() }
	put, get := opPut, opGet
	var allCkpts float64 // every measured round, traced or not: what the registry counters cover
	for _, rs := range rounds {
		allCkpts += float64(rs.ckpts)
	}
	iodBytes := float64(tot.bytes[layerIod][put] + tot.bytes[layerIod][get])
	iostoreBusy := tot.busy[layerIostore][put] + tot.busy[layerIostore][get]

	m := []metric{
		{"client.save_ack_p95_ms", quantile(acks, 0.95), "ms", len(acks)},
		{"client.restore_p95_ms", quantile(loads, 0.95), "ms", len(loads)},
		{"client.durable_p50_ms", median(durable), "ms", len(durable)},
		{"client.save_ops", float64(len(acks)), "count", 0},
		{"client.restore_ops", float64(len(loads)), "count", 0},
		{"client.failed_ops", float64(b.failed), "count", 0},
	}
	for k, phase := range []string{"save", "restore"} {
		for bk := bucket(0); bk < numBuckets; bk++ {
			m = append(m, metric{bucketNames[bk] + "." + phase + "_self_ms_p50", self[k][bk], "ms", typical[k]})
		}
		m = append(m,
			metric{"gateway." + phase + "_handler_ms_p50", median(handler[k]), "ms", len(handler[k])},
			metric{"http." + phase + "_body_io_ms_p50", median(bodyIO[k]), "ms", len(bodyIO[k])})
	}
	m = append(m,
		metric{"node.streamed_restore_share", ratio(b.counted("ndpcr_node_streamed_restores_total"), b.counted(`ndpcr_node_restores_total{level="io"}`)), "ratio", 0},
		metric{"nvm.admission_waits", b.counted("ndpcr_nvm_admission_waits_total"), "count", 0},
		metric{"ndp.drain_retries", b.counted("ndpcr_ndp_drain_retries_total"), "count", 0},

		metric{"compress.compress_busy_s_per_gb", ratio(sec(tot.busy[layerCompress][opCompress]), gb), "s/GB", 0},
		metric{"compress.decompress_busy_s_per_gb", ratio(sec(tot.busy[layerCompress][opDecompress]), gb), "s/GB", 0},
		metric{"compress.calls_per_ckpt", ratio(float64(tot.calls[layerCompress][opCompress]+tot.calls[layerCompress][opDecompress]), 2*ckpts), "count", 0},
		metric{"compress.ratio", ratio(stored, replicas*gb*1e9), "ratio", 0},

		metric{"shardstore.put_calls_per_ckpt", ratio(float64(tot.calls[layerShard][put]), ckpts), "count", 0},
		metric{"shardstore.get_calls_per_ckpt", ratio(float64(tot.calls[layerShard][get]), ckpts), "count", 0},
		metric{"shardstore.meta_calls_per_ckpt", ratio(float64(tot.calls[layerShard][opMeta]), 2*ckpts), "count", 0},
		metric{"shardstore.put_busy_s_per_gb", ratio(sec(tot.busy[layerShard][put]), gb), "s/GB", 0},
		metric{"shardstore.get_busy_s_per_gb", ratio(sec(tot.busy[layerShard][get]), gb), "s/GB", 0},
		metric{"shardstore.put_self_s_per_gb", ratio(sec(tot.shardSelf[put]), gb), "s/GB", 0},
		metric{"shardstore.get_self_s_per_gb", ratio(sec(tot.shardSelf[get]), gb), "s/GB", 0},
		metric{"shardstore.put_cover_share", ratio(sec(tot.shardCover[put]), sec(saveWall)), "ratio", 0},
		metric{"shardstore.get_cover_share", ratio(sec(tot.shardCover[get]), sec(restoreWall)), "ratio", 0},
		metric{"shardstore.write_amp", ratio(float64(tot.bytes[layerIod][put]), float64(tot.bytes[layerShard][put])), "ratio", 0},
		metric{"shardstore.read_failovers", b.counted("ndpcr_shardstore_read_failovers_total"), "count", 0},
		metric{"shardstore.replica_errors", b.counted("ndpcr_shardstore_replica_errors_total"), "count", 0},

		metric{"iod.put_calls_per_ckpt", ratio(float64(tot.calls[layerIod][put]), ckpts), "count", 0},
		metric{"iod.get_calls_per_ckpt", ratio(float64(tot.calls[layerIod][get]), ckpts), "count", 0},
		metric{"iod.put_rtt_ms_p50", median(tot.rtt[put]), "ms", len(tot.rtt[put])},
		metric{"iod.get_rtt_ms_p50", median(tot.rtt[get]), "ms", len(tot.rtt[get])},
		metric{"iod.get_rtt_ms_p95", quantile(tot.rtt[get], 0.95), "ms", len(tot.rtt[get])},
		metric{"iod.put_wire_self_s_per_gb", ratio(sec(tot.wireSelf[put]), gb), "s/GB", 0},
		metric{"iod.get_wire_self_s_per_gb", ratio(sec(tot.wireSelf[get]), gb), "s/GB", 0},
		metric{"iod.wire_bytes_per_byte", ratio(iodBytes, 2*gb*1e9), "ratio", 0},
		metric{"iod.call_retries", b.counted("ndpcr_iod_call_retries_total"), "count", 0},
		metric{"iod.lane_waits_per_ckpt", ratio(b.counted("ndpcr_iod_lane_waits_total"), allCkpts), "count", 0},

		metric{"iostore.put_busy_s_per_gb", ratio(sec(tot.busy[layerIostore][put]), gb), "s/GB", 0},
		metric{"iostore.get_busy_s_per_gb", ratio(sec(tot.busy[layerIostore][get]), gb), "s/GB", 0},
		metric{"iostore.paced_sleep_share", ratio(float64(b.tracedSleep), float64(iostoreBusy)), "ratio", 0},

		metric{"proc.cpu_s_per_gb", ratio(proc.cpu, unGB), "s/GB", 0},
		metric{"proc.allocs_per_op", ratio(float64(proc.mallocs), float64(unOps)), "count", 0},
		metric{"proc.peak_heap_mb", float64(proc.heap) / 1e6, "MB", 0},
		metric{"proc.gc_cpu_share", ratio(proc.gcCPU, proc.cpu), "ratio", 0},

		metric{"trace.save_overhead_share", overhead(saveSeconds), "ratio", len(tr)},
		metric{"trace.restore_overhead_share", overhead(restoreSeconds), "ratio", len(tr)},
		metric{"trace.save_sum_error_share", b.misplacedShare(ops, spans, saveWins), "ratio", 0},
		metric{"trace.restore_sum_error_share", b.misplacedShare(ops, spans, restoreWins), "ratio", 0},
	)
	return m
}
