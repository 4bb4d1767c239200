// Hand-rolled Prometheus text exposition for /metrics — every counter
// the engine has grown (latency breakdown, EngineStats, shard stats,
// shard health, hedged reads, retries, cache, pool, rebalance) plus
// the server's own request/backpressure counters, with no exporter
// dependency.
package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"lamassu"
)

// promWriter accumulates one exposition document. Metrics are emitted
// grouped by family (one # HELP / # TYPE header, then every sample).
type promWriter struct {
	b strings.Builder
}

func (p *promWriter) family(name, typ, help string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample emits one metric line. labels alternate key, value.
func (p *promWriter) sample(name string, value float64, labels ...string) {
	p.b.WriteString(name)
	if len(labels) > 0 {
		p.b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				p.b.WriteByte(',')
			}
			fmt.Fprintf(&p.b, "%s=%q", labels[i], labels[i+1])
		}
		p.b.WriteByte('}')
	}
	// %g keeps integers integral and avoids exponent noise for the
	// counter magnitudes we emit.
	fmt.Fprintf(&p.b, " %g\n", value)
}

// promLabel sanitizes a category/tenant name into a label value that
// stays greppable: lowercase, [a-z0-9_] only ("I/O" -> "io",
// "Misc." -> "misc").
func promLabel(s string) string {
	var out []byte
	for _, c := range []byte(strings.ToLower(s)) {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_':
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return "unknown"
	}
	return string(out)
}

// handleMetrics serves GET /metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	p := &promWriter{}

	// Server plane: requests, admission, backpressure.
	ls := s.limiter.Stats()
	p.family("lamassu_serve_requests_total", "counter", "Requests admitted, by tenant and operation.")
	counts := s.RequestCounts()
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		tenant, op, _ := strings.Cut(k, "/")
		p.sample("lamassu_serve_requests_total", float64(counts[k]), "tenant", promLabel(tenant), "op", op)
	}
	p.family("lamassu_serve_rejected_total", "counter", "Requests rejected with 503 by the admission limiter.")
	p.sample("lamassu_serve_rejected_total", float64(ls.Rejected))
	p.family("lamassu_serve_inflight", "gauge", "Requests currently holding an admission slot.")
	p.sample("lamassu_serve_inflight", float64(ls.InFlight))
	p.family("lamassu_serve_inflight_peak", "gauge", "Deepest the admission gate has been (bounded by max).")
	p.sample("lamassu_serve_inflight_peak", float64(ls.PeakInFlight))
	p.family("lamassu_serve_inflight_max", "gauge", "Admission bound (503s beyond this queue depth).")
	p.sample("lamassu_serve_inflight_max", float64(ls.Max))

	// Latency breakdown (the Figure 9 categories; present only with
	// CollectLatency, the one switch instrumentation has).
	if slices := s.m.Latency(); len(slices) > 0 {
		p.family("lamassu_latency_seconds_total", "counter", "Accumulated engine latency by category (paper Figure 9 breakdown).")
		for _, sl := range slices {
			p.sample("lamassu_latency_seconds_total", sl.Total.Seconds(), "category", promLabel(sl.Category))
		}
	}

	// Engine, cache, pool and rebalance counters: one sample each.
	es, cs, ps, rs := s.m.EngineStats(), s.m.CacheStats(), s.m.PoolStats(), s.m.RebalanceStatus()
	for _, m := range []struct {
		name, typ, help string
		v               float64
	}{
		{"lamassu_backend_ios_total", "counter", "Backend calls issued (reads, writes, truncates, syncs).", float64(es.BackendIOs)},
		{"lamassu_backend_io_bytes_total", "counter", "Payload bytes moved by backend calls.", float64(es.IOBytes)},
		{"lamassu_backend_write_runs_total", "counter", "Data-block backend writes (one per run of adjacent blocks).", float64(es.WriteRuns)},
		{"lamassu_backend_read_runs_total", "counter", "Data-block backend reads (one per run of adjacent blocks).", float64(es.ReadRuns)},
		{"lamassu_backend_prefetches_total", "counter", "Readahead windows issued.", float64(es.Prefetches)},
		{"lamassu_slab_hits_total", "counter", "Scratch buffers served from the slab pool.", float64(es.SlabHits)},
		{"lamassu_slab_misses_total", "counter", "Scratch buffers freshly allocated.", float64(es.SlabMisses)},
		{"lamassu_retry_attempts_total", "counter", "Backend operations re-issued after transient failure.", float64(es.RetryAttempts)},
		{"lamassu_retries_exhausted_total", "counter", "Operations failed after the retry budget ran out.", float64(es.RetriesExhausted)},
		{"lamassu_io_window", "gauge", "Configured backend I/O window (0 = unwindowed).", float64(es.IOWindow)},
		{"lamassu_io_inflight", "gauge", "Backend operations holding an I/O-window slot.", float64(es.IOInFlight)},
		{"lamassu_io_inflight_peak", "gauge", "Deepest the I/O window has been.", float64(es.IOPeakInFlight)},
		{"lamassu_hedge_attempts_total", "counter", "Duplicate reads issued by the hedging wrapper.", float64(es.HedgeAttempts)},
		{"lamassu_hedge_wins_total", "counter", "Hedged reads that beat the primary.", float64(es.HedgeWins)},
		{"lamassu_read_p50_seconds", "gauge", "Observed backend read-latency p50 (worst store).", es.ReadP50.Seconds()},
		{"lamassu_read_p99_seconds", "gauge", "Observed backend read-latency p99 (worst store).", es.ReadP99.Seconds()},
		{"lamassu_logical_bytes_total", "counter", "Plaintext data bytes moved through the encode/decode path.", float64(es.LogicalBytes)},
		{"lamassu_stored_bytes_total", "counter", "Post-compression data bytes actually moved to/from the backend.", float64(es.StoredBytes)},
		{"lamassu_compressed_blocks_total", "counter", "Data blocks stored as compressed frames.", float64(es.CompressedBlocks)},
		{"lamassu_raw_escapes_total", "counter", "Incompressible data blocks stored verbatim by the raw escape.", float64(es.RawEscapes)},
		{"lamassu_compression_ratio", "gauge", "Live logical-to-stored data ratio (1.0 = no compression win).", es.CompressionRatio()},
		{"lamassu_replica_writes_total", "counter", "Writes landed on non-primary replica copies.", float64(es.ReplicaWrites)},
		{"lamassu_failover_reads_total", "counter", "Reads served by a replica after the preferred copy failed.", float64(es.FailoverReads)},
		{"lamassu_scrub_repairs_total", "counter", "Replica copies re-created or rewritten by scrub.", float64(es.ScrubRepairs)},
		{"lamassu_breaker_opens_total", "counter", "Shard-health breaker openings.", float64(es.BreakerOpens)},
		{"lamassu_cache_capacity", "gauge", "Configured block-cache capacity (entries).", float64(cs.Capacity)},
		{"lamassu_cache_entries", "gauge", "Cached blocks right now.", float64(cs.Entries)},
		{"lamassu_cache_hits_total", "counter", "Block-cache hits.", float64(cs.Hits)},
		{"lamassu_cache_misses_total", "counter", "Block-cache misses.", float64(cs.Misses)},
		{"lamassu_pool_width", "gauge", "Commit worker-pool concurrency bound.", float64(ps.Width)},
		{"lamassu_pool_batches_total", "counter", "Commit fan-out invocations.", float64(ps.Batches)},
		{"lamassu_pool_tasks_total", "counter", "Per-block pool tasks executed.", float64(ps.Tasks)},
		{"lamassu_rebalance_active", "gauge", "1 while a placement migration is in progress.", boolGauge(rs.Active)},
		{"lamassu_rebalance_mover_running", "gauge", "1 while the migration's background mover is copying.", boolGauge(rs.MoverRunning)},
		{"lamassu_rebalance_epoch", "gauge", "Settled placement epoch being served.", float64(rs.Epoch)},
		{"lamassu_rebalance_target_epoch", "gauge", "Epoch being migrated to (0 unless a migration is active).", float64(rs.TargetEpoch)},
		{"lamassu_rebalance_total_keys", "gauge", "Placement keys the current migration must relocate, as discovered so far.", float64(rs.TotalKeys)},
		{"lamassu_rebalance_moved_keys_total", "counter", "Keys confirmed moved by the current migration.", float64(rs.MovedKeys)},
		{"lamassu_rebalance_moved_bytes_total", "counter", "Bytes copied by the current migration.", float64(rs.MovedBytes)},
		{"lamassu_rebalance_fallback_reads_total", "counter", "Dual-ring reads served by the previous epoch's owner.", float64(rs.FallbackReads)},
		{"lamassu_rebalance_mirrored_writes_total", "counter", "Writes dual-written to the previous epoch's owner.", float64(rs.MirroredWrites)},
	} {
		p.family(m.name, m.typ, m.help)
		p.sample(m.name, m.v)
	}

	// Per-shard traffic, budget and health (sharded mounts only).
	ss := s.m.ShardStats()
	for _, f := range []struct {
		name, typ, help string
		v               func(lamassu.ShardStat) float64
	}{
		{"lamassu_shard_reads_total", "counter", "Backend reads routed to the shard.", func(st lamassu.ShardStat) float64 { return float64(st.Reads) }},
		{"lamassu_shard_writes_total", "counter", "Backend writes routed to the shard.", func(st lamassu.ShardStat) float64 { return float64(st.Writes) }},
		{"lamassu_shard_syncs_total", "counter", "Backend syncs routed to the shard.", func(st lamassu.ShardStat) float64 { return float64(st.Syncs) }},
		{"lamassu_shard_bytes_read_total", "counter", "Bytes read from the shard.", func(st lamassu.ShardStat) float64 { return float64(st.BytesRead) }},
		{"lamassu_shard_bytes_written_total", "counter", "Bytes written to the shard.", func(st lamassu.ShardStat) float64 { return float64(st.BytesWritten) }},
		{"lamassu_shard_budget", "gauge", "The shard's slice of the commit worker pool.", func(st lamassu.ShardStat) float64 { return float64(st.Budget) }},
		{"lamassu_shard_tasks_total", "counter", "Commit tasks and read fetches executed for the shard this epoch.", func(st lamassu.ShardStat) float64 { return float64(st.Tasks) }},
		{"lamassu_shard_queue_depth", "gauge", "Tasks queued or running for the shard now.", func(st lamassu.ShardStat) float64 { return float64(st.QueueDepth) }},
	} {
		series(p, f.name, f.typ, f.help, "shard", ss, f.v)
	}
	hs := s.m.ShardHealth()
	for _, f := range []struct {
		name, typ, help string
		v               func(lamassu.ShardHealth) float64
	}{
		{"lamassu_shard_failures_total", "counter", "Health-relevant failures on the shard slot.", func(h lamassu.ShardHealth) float64 { return float64(h.Failures) }},
		{"lamassu_shard_successes_total", "counter", "Health-relevant successes on the shard slot.", func(h lamassu.ShardHealth) float64 { return float64(h.Successes) }},
		{"lamassu_shard_consecutive_failures", "gauge", "Current failure streak on the shard slot.", func(h lamassu.ShardHealth) float64 { return float64(h.ConsecutiveFailures) }},
		{"lamassu_shard_breaker_open", "gauge", "1 when the slot is exiled to half-open probing.", func(h lamassu.ShardHealth) float64 { return boolGauge(h.BreakerOpen) }},
	} {
		series(p, f.name, f.typ, f.help, "shard", hs, f.v)
	}

	// Hedged-read per-store breakdown.
	hrs := s.m.HedgedReadStats()
	for _, f := range []struct {
		name, typ, help string
		v               func(lamassu.HedgedReadStats) float64
	}{
		{"lamassu_hedge_store_reads_total", "counter", "Reads issued through the hedging wrapper, per store.", func(h lamassu.HedgedReadStats) float64 { return float64(h.Reads) }},
		{"lamassu_hedge_store_hedges_total", "counter", "Duplicate reads the hedge delay triggered, per store.", func(h lamassu.HedgedReadStats) float64 { return float64(h.Hedges) }},
		{"lamassu_hedge_store_wins_total", "counter", "Hedges whose response beat the primary, per store.", func(h lamassu.HedgedReadStats) float64 { return float64(h.HedgeWins) }},
		{"lamassu_hedge_store_read_p50_seconds", "gauge", "Observed backend read-latency p50, per store.", func(h lamassu.HedgedReadStats) float64 { return h.P50.Seconds() }},
		{"lamassu_hedge_store_read_p99_seconds", "gauge", "Observed backend read-latency p99, per store.", func(h lamassu.HedgedReadStats) float64 { return h.P99.Seconds() }},
	} {
		series(p, f.name, f.typ, f.help, "store", hrs, f.v)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(p.b.String()))
}

// series emits one family with a sample per entry of a per-shard or
// per-store breakdown, labeled by the entry's index; nothing when the
// breakdown is empty.
func series[T any](p *promWriter, name, typ, help, label string, entries []T, v func(T) float64) {
	if len(entries) == 0 {
		return
	}
	p.family(name, typ, help)
	for i, e := range entries {
		p.sample(name, v(e), label, strconv.Itoa(i))
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
