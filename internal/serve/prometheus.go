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
	"strings"
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

	// Latency breakdown (metrics.Recorder categories; empty without
	// CollectLatency).
	if slices := s.m.Latency(); len(slices) > 0 {
		p.family("lamassu_latency_seconds_total", "counter", "Accumulated engine latency by category (paper Figure 9 breakdown).")
		for _, sl := range slices {
			p.sample("lamassu_latency_seconds_total", sl.Total.Seconds(), "category", promLabel(sl.Category))
		}
	}

	// Engine counters.
	es := s.m.EngineStats()
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
	} {
		p.family(m.name, m.typ, m.help)
		p.sample(m.name, m.v)
	}

	// Cache and pool.
	cs := s.m.CacheStats()
	p.family("lamassu_cache_capacity", "gauge", "Configured block-cache capacity (entries).")
	p.sample("lamassu_cache_capacity", float64(cs.Capacity))
	p.family("lamassu_cache_entries", "gauge", "Cached blocks right now.")
	p.sample("lamassu_cache_entries", float64(cs.Entries))
	p.family("lamassu_cache_hits_total", "counter", "Block-cache hits.")
	p.sample("lamassu_cache_hits_total", float64(cs.Hits))
	p.family("lamassu_cache_misses_total", "counter", "Block-cache misses.")
	p.sample("lamassu_cache_misses_total", float64(cs.Misses))
	ps := s.m.PoolStats()
	p.family("lamassu_pool_width", "gauge", "Commit worker-pool concurrency bound.")
	p.sample("lamassu_pool_width", float64(ps.Width))
	p.family("lamassu_pool_batches_total", "counter", "Commit fan-out invocations.")
	p.sample("lamassu_pool_batches_total", float64(ps.Batches))
	p.family("lamassu_pool_tasks_total", "counter", "Per-block pool tasks executed.")
	p.sample("lamassu_pool_tasks_total", float64(ps.Tasks))

	// Per-shard traffic and health (sharded mounts only).
	if ss := s.m.ShardStats(); len(ss) > 0 {
		p.family("lamassu_shard_reads_total", "counter", "Backend reads routed to the shard.")
		for _, st := range ss {
			p.sample("lamassu_shard_reads_total", float64(st.Reads), "shard", fmt.Sprint(st.Shard))
		}
		p.family("lamassu_shard_writes_total", "counter", "Backend writes routed to the shard.")
		for _, st := range ss {
			p.sample("lamassu_shard_writes_total", float64(st.Writes), "shard", fmt.Sprint(st.Shard))
		}
		p.family("lamassu_shard_bytes_read_total", "counter", "Bytes read from the shard.")
		for _, st := range ss {
			p.sample("lamassu_shard_bytes_read_total", float64(st.BytesRead), "shard", fmt.Sprint(st.Shard))
		}
		p.family("lamassu_shard_bytes_written_total", "counter", "Bytes written to the shard.")
		for _, st := range ss {
			p.sample("lamassu_shard_bytes_written_total", float64(st.BytesWritten), "shard", fmt.Sprint(st.Shard))
		}
		p.family("lamassu_shard_queue_depth", "gauge", "Tasks queued or running for the shard now.")
		for _, st := range ss {
			p.sample("lamassu_shard_queue_depth", float64(st.QueueDepth), "shard", fmt.Sprint(st.Shard))
		}
	}
	if hs := s.m.ShardHealth(); len(hs) > 0 {
		p.family("lamassu_shard_failures_total", "counter", "Health-relevant failures on the shard slot.")
		for _, h := range hs {
			p.sample("lamassu_shard_failures_total", float64(h.Failures), "shard", fmt.Sprint(h.Shard))
		}
		p.family("lamassu_shard_breaker_open", "gauge", "1 when the slot is exiled to half-open probing.")
		for _, h := range hs {
			v := 0.0
			if h.BreakerOpen {
				v = 1
			}
			p.sample("lamassu_shard_breaker_open", v, "shard", fmt.Sprint(h.Shard))
		}
	}

	// Hedged-read per-store breakdown.
	if hrs := s.m.HedgedReadStats(); len(hrs) > 0 {
		p.family("lamassu_hedge_store_reads_total", "counter", "Reads issued through the hedging wrapper, per store.")
		for i, h := range hrs {
			p.sample("lamassu_hedge_store_reads_total", float64(h.Reads), "store", fmt.Sprint(i))
		}
	}

	// Rebalance / migration progress.
	rs := s.m.RebalanceStatus()
	p.family("lamassu_rebalance_active", "gauge", "1 while a placement migration is in progress.")
	p.sample("lamassu_rebalance_active", boolGauge(rs.Active))
	p.family("lamassu_rebalance_epoch", "gauge", "Settled placement epoch being served.")
	p.sample("lamassu_rebalance_epoch", float64(rs.Epoch))
	p.family("lamassu_rebalance_moved_keys_total", "counter", "Keys confirmed moved by the current migration.")
	p.sample("lamassu_rebalance_moved_keys_total", float64(rs.MovedKeys))
	p.family("lamassu_rebalance_moved_bytes_total", "counter", "Bytes copied by the current migration.")
	p.sample("lamassu_rebalance_moved_bytes_total", float64(rs.MovedBytes))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(p.b.String()))
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
