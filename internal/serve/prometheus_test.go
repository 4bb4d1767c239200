// /metrics exposition coverage: well-formed Prometheus text, the
// engine counters visible and non-zero after traffic, per-tenant
// request counters labeled, and the backpressure gauges present.
package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"lamassu"
)

// promValue extracts the value of the first sample whose line starts
// with prefix (metric name, optionally with a label block).
func promValue(t *testing.T, text, prefix string) (float64, bool) {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(fields[len(fields)-1], "%g", &v); err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		return v, true
	}
	return 0, false
}

func TestMetricsExposition(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	// Generate traffic under two tenants.
	for i := 0; i < 3; i++ {
		resp, body := doReq(t, "PUT", hs.URL+fmt.Sprintf("/v1/files/m%d.bin", i), tokAlice, make([]byte, 8192), nil)
		wantStatus(t, resp, body, http.StatusNoContent)
	}
	resp, body := doReq(t, "GET", hs.URL+"/v1/files/m0.bin", tokAlice, nil, nil)
	wantStatus(t, resp, body, http.StatusOK)
	resp, body = doReq(t, "PUT", hs.URL+"/v1/files/b.bin", tokBob, []byte("b"), nil)
	wantStatus(t, resp, body, http.StatusNoContent)

	resp, body = doReq(t, "GET", hs.URL+"/metrics", "", nil, nil)
	wantStatus(t, resp, body, http.StatusOK)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type %q", ct)
	}
	text := string(body)

	// Format sanity: every sample line's metric has HELP and TYPE, and
	// HELP/TYPE come in pairs.
	if strings.Count(text, "# HELP") == 0 || strings.Count(text, "# HELP") != strings.Count(text, "# TYPE") {
		t.Fatalf("HELP/TYPE pairing broken: %d HELP, %d TYPE", strings.Count(text, "# HELP"), strings.Count(text, "# TYPE"))
	}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i > 0 {
			name = line[:i]
		}
		if !strings.HasPrefix(name, "lamassu_") {
			t.Fatalf("sample %q outside the lamassu_ namespace", line)
		}
		if !strings.Contains(text, "# TYPE "+name+" ") {
			t.Fatalf("sample %q has no TYPE header", line)
		}
	}

	// Per-tenant request counters with sanitized labels.
	if v, ok := promValue(t, text, `lamassu_serve_requests_total{tenant="alice",op="write"}`); !ok || v != 3 {
		t.Fatalf("alice write counter = %v (present %v), want 3", v, ok)
	}
	if v, ok := promValue(t, text, `lamassu_serve_requests_total{tenant="alice",op="read"}`); !ok || v != 1 {
		t.Fatalf("alice read counter = %v (present %v), want 1", v, ok)
	}
	if v, ok := promValue(t, text, `lamassu_serve_requests_total{tenant="bob",op="write"}`); !ok || v != 1 {
		t.Fatalf("bob write counter = %v (present %v), want 1", v, ok)
	}

	// Engine counters are exported and alive (CollectLatency is on).
	if v, ok := promValue(t, text, "lamassu_backend_ios_total"); !ok || v == 0 {
		t.Fatalf("lamassu_backend_ios_total = %v (present %v), want > 0", v, ok)
	}
	if v, ok := promValue(t, text, "lamassu_backend_io_bytes_total"); !ok || v == 0 {
		t.Fatalf("lamassu_backend_io_bytes_total = %v, want > 0 (present %v)", v, ok)
	}
	if _, ok := promValue(t, text, `lamassu_latency_seconds_total{category="io"}`); !ok {
		t.Fatal("latency breakdown missing the io category (label sanitization broke?)")
	}

	// Backpressure gauges present with the configured bound.
	if v, ok := promValue(t, text, "lamassu_serve_inflight_max"); !ok || v != DefaultMaxInFlight {
		t.Fatalf("lamassu_serve_inflight_max = %v (present %v)", v, ok)
	}
	if _, ok := promValue(t, text, "lamassu_serve_rejected_total"); !ok {
		t.Fatal("lamassu_serve_rejected_total missing")
	}
	// Cache/pool families always exported.
	for _, name := range []string{"lamassu_cache_hits_total", "lamassu_pool_width", "lamassu_rebalance_active"} {
		if _, ok := promValue(t, text, name); !ok {
			t.Fatalf("%s missing", name)
		}
	}
}

// TestMetricsCompression drives a compressed mount with compressible
// traffic and requires the logical/stored accounting and the live
// ratio to show the win on /metrics.
func TestMetricsCompression(t *testing.T) {
	keys, err := lamassu.GenerateKeys()
	if err != nil {
		t.Fatalf("GenerateKeys: %v", err)
	}
	m, err := lamassu.New(lamassu.NewMemStorage(), keys,
		lamassu.WithEncryptedNames(),
		lamassu.WithLatencyCollection(),
		lamassu.WithCompression())
	if err != nil {
		t.Fatalf("New mount: %v", err)
	}
	t.Cleanup(func() { _ = m.Close() })
	_, hs := newTestServer(t, Config{Mount: m})

	resp, body := doReq(t, "PUT", hs.URL+"/v1/files/z.bin", tokAlice,
		bytes.Repeat([]byte("compressible metrics payload "), 2048), nil)
	wantStatus(t, resp, body, http.StatusNoContent)

	resp, body = doReq(t, "GET", hs.URL+"/metrics", "", nil, nil)
	wantStatus(t, resp, body, http.StatusOK)
	text := string(body)

	logical, ok := promValue(t, text, "lamassu_logical_bytes_total")
	if !ok || logical == 0 {
		t.Fatalf("lamassu_logical_bytes_total = %v (present %v), want > 0", logical, ok)
	}
	stored, ok := promValue(t, text, "lamassu_stored_bytes_total")
	if !ok || stored == 0 || stored >= logical {
		t.Fatalf("lamassu_stored_bytes_total = %v (present %v), want in (0, %v)", stored, ok, logical)
	}
	if v, ok := promValue(t, text, "lamassu_compressed_blocks_total"); !ok || v == 0 {
		t.Fatalf("lamassu_compressed_blocks_total = %v (present %v), want > 0", v, ok)
	}
	if v, ok := promValue(t, text, "lamassu_raw_escapes_total"); !ok || v != 0 {
		t.Fatalf("lamassu_raw_escapes_total = %v (present %v), want 0", v, ok)
	}
	if v, ok := promValue(t, text, "lamassu_compression_ratio"); !ok || v <= 1 {
		t.Fatalf("lamassu_compression_ratio = %v (present %v), want > 1", v, ok)
	}
}

func TestPromLabel(t *testing.T) {
	for in, want := range map[string]string{
		"I/O":      "io",
		"Misc.":    "misc",
		"Encrypt":  "encrypt",
		"GetCEKey": "getcekey",
		"":         "unknown",
		"///":      "unknown",
	} {
		if got := promLabel(in); got != want {
			t.Errorf("promLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestMetricsCompleteness: every numeric or bool field of the stats
// types a Mount reports has a lamassu_ family on /metrics. A field
// added to one of these types fails here until it is exported (or,
// if it is derived, listed as exempt).
func TestMetricsCompleteness(t *testing.T) {
	keys, err := lamassu.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := lamassu.NewShardedStorage(
		[]lamassu.Storage{lamassu.NewMemStorage(), lamassu.NewMemStorage()},
		&lamassu.ShardOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Sharded, replicated and hedged, so the per-shard and per-store
	// breakdowns are non-empty and render.
	m, err := lamassu.New(sharded, keys,
		lamassu.WithEncryptedNames(),
		lamassu.WithReplication(2),
		lamassu.WithHedgedReads(lamassu.HedgePolicy{}),
		lamassu.WithCache(16))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	_, hs := newTestServer(t, Config{Mount: m})
	resp, body := doReq(t, "PUT", hs.URL+"/v1/files/c.bin", tokAlice, make([]byte, 8192), nil)
	wantStatus(t, resp, body, http.StatusNoContent)
	resp, body = doReq(t, "GET", hs.URL+"/metrics", "", nil, nil)
	wantStatus(t, resp, body, http.StatusOK)
	text := string(body)

	family := map[string]string{
		"EngineStats.BackendIOs":          "lamassu_backend_ios_total",
		"EngineStats.IOBytes":             "lamassu_backend_io_bytes_total",
		"EngineStats.WriteRuns":           "lamassu_backend_write_runs_total",
		"EngineStats.ReadRuns":            "lamassu_backend_read_runs_total",
		"EngineStats.Prefetches":          "lamassu_backend_prefetches_total",
		"EngineStats.SlabHits":            "lamassu_slab_hits_total",
		"EngineStats.SlabMisses":          "lamassu_slab_misses_total",
		"EngineStats.RetryAttempts":       "lamassu_retry_attempts_total",
		"EngineStats.RetriesExhausted":    "lamassu_retries_exhausted_total",
		"EngineStats.IOWindow":            "lamassu_io_window",
		"EngineStats.IOInFlight":          "lamassu_io_inflight",
		"EngineStats.IOPeakInFlight":      "lamassu_io_inflight_peak",
		"EngineStats.HedgeAttempts":       "lamassu_hedge_attempts_total",
		"EngineStats.HedgeWins":           "lamassu_hedge_wins_total",
		"EngineStats.ReadP50":             "lamassu_read_p50_seconds",
		"EngineStats.ReadP99":             "lamassu_read_p99_seconds",
		"EngineStats.LogicalBytes":        "lamassu_logical_bytes_total",
		"EngineStats.StoredBytes":         "lamassu_stored_bytes_total",
		"EngineStats.CompressedBlocks":    "lamassu_compressed_blocks_total",
		"EngineStats.RawEscapes":          "lamassu_raw_escapes_total",
		"EngineStats.ReplicaWrites":       "lamassu_replica_writes_total",
		"EngineStats.FailoverReads":       "lamassu_failover_reads_total",
		"EngineStats.ScrubRepairs":        "lamassu_scrub_repairs_total",
		"EngineStats.BreakerOpens":        "lamassu_breaker_opens_total",
		"CacheStats.Capacity":             "lamassu_cache_capacity",
		"CacheStats.Entries":              "lamassu_cache_entries",
		"CacheStats.Hits":                 "lamassu_cache_hits_total",
		"CacheStats.Misses":               "lamassu_cache_misses_total",
		"PoolStats.Width":                 "lamassu_pool_width",
		"PoolStats.Batches":               "lamassu_pool_batches_total",
		"PoolStats.Tasks":                 "lamassu_pool_tasks_total",
		"ShardStat.Reads":                 "lamassu_shard_reads_total",
		"ShardStat.Writes":                "lamassu_shard_writes_total",
		"ShardStat.Syncs":                 "lamassu_shard_syncs_total",
		"ShardStat.BytesRead":             "lamassu_shard_bytes_read_total",
		"ShardStat.BytesWritten":          "lamassu_shard_bytes_written_total",
		"ShardStat.Budget":                "lamassu_shard_budget",
		"ShardStat.Tasks":                 "lamassu_shard_tasks_total",
		"ShardStat.QueueDepth":            "lamassu_shard_queue_depth",
		"ShardHealth.Failures":            "lamassu_shard_failures_total",
		"ShardHealth.Successes":           "lamassu_shard_successes_total",
		"ShardHealth.ConsecutiveFailures": "lamassu_shard_consecutive_failures",
		"ShardHealth.BreakerOpen":         "lamassu_shard_breaker_open",
		"RebalanceStatus.Active":          "lamassu_rebalance_active",
		"RebalanceStatus.MoverRunning":    "lamassu_rebalance_mover_running",
		"RebalanceStatus.Epoch":           "lamassu_rebalance_epoch",
		"RebalanceStatus.TargetEpoch":     "lamassu_rebalance_target_epoch",
		"RebalanceStatus.TotalKeys":       "lamassu_rebalance_total_keys",
		"RebalanceStatus.MovedKeys":       "lamassu_rebalance_moved_keys_total",
		"RebalanceStatus.MovedBytes":      "lamassu_rebalance_moved_bytes_total",
		"RebalanceStatus.FallbackReads":   "lamassu_rebalance_fallback_reads_total",
		"RebalanceStatus.MirroredWrites":  "lamassu_rebalance_mirrored_writes_total",
		"HedgedReadStats.Reads":           "lamassu_hedge_store_reads_total",
		"HedgedReadStats.Hedges":          "lamassu_hedge_store_hedges_total",
		"HedgedReadStats.HedgeWins":       "lamassu_hedge_store_wins_total",
		"HedgedReadStats.P50":             "lamassu_hedge_store_read_p50_seconds",
		"HedgedReadStats.P99":             "lamassu_hedge_store_read_p99_seconds",
	}
	// Derived values and label indices carry no family of their own.
	exempt := map[string]bool{
		"EngineStats.BytesPerIO": true, // IOBytes / BackendIOs
		"ShardStat.Shard":        true, // the shard label
		"ShardHealth.Shard":      true, // the shard label
	}
	seen := map[string]bool{}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(lamassu.EngineStats{}), reflect.TypeOf(lamassu.CacheStats{}),
		reflect.TypeOf(lamassu.PoolStats{}), reflect.TypeOf(lamassu.ShardStat{}),
		reflect.TypeOf(lamassu.ShardHealth{}), reflect.TypeOf(lamassu.RebalanceStatus{}),
		reflect.TypeOf(lamassu.HedgedReadStats{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch f.Type.Kind() {
			case reflect.Bool, reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64:
			default:
				t.Fatalf("%s.%s has kind %s; teach this test about it", typ.Name(), f.Name, f.Type.Kind())
			}
			key := typ.Name() + "." + f.Name
			seen[key] = true
			if exempt[key] {
				continue
			}
			name, ok := family[key]
			if !ok {
				t.Errorf("%s has no /metrics family", key)
				continue
			}
			if !strings.Contains(text, "# TYPE "+name+" ") {
				t.Errorf("%s: family %s missing from /metrics", key, name)
			}
		}
	}
	for key := range family {
		if !seen[key] {
			t.Errorf("family table names %s, which is not a stats field", key)
		}
	}
}
