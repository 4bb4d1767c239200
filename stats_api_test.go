package lamassu

import (
	"bytes"
	"testing"
	"time"

	"lamassu/internal/backend"
	"lamassu/internal/faultfs"
)

// TestEngineStatsLiveWithoutLatencyCollection: every EngineStats
// counter is owned by its layer and counts whether or not the Figure 9
// timing is on. The mount below never enables it, yet retries,
// compression, runs, backend calls and slab traffic all show up.
func TestEngineStatsLiveWithoutLatencyCollection(t *testing.T) {
	fs := faultfs.New(backend.NewMemStore())
	m, err := New(fs, testKeysT(t),
		WithRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Microsecond}),
		WithCompression())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	data := bytes.Repeat([]byte("live counters "), 8192)
	fs.ArmTransient(faultfs.OpWrite, 2)
	fs.ArmTransient(faultfs.OpRead, 2)
	if err := m.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("readback mismatch")
	}
	if fs.TransientInjected() == 0 {
		t.Fatal("no transient fault was injected; the test proved nothing")
	}
	if m.Latency() != nil {
		t.Fatal("Latency is non-nil without WithLatencyCollection")
	}

	st := m.EngineStats()
	for name, v := range map[string]int64{
		"WriteRuns":             st.WriteRuns,
		"ReadRuns":              st.ReadRuns,
		"BackendIOs":            st.BackendIOs,
		"IOBytes":               st.IOBytes,
		"CompressedBlocks":      st.CompressedBlocks,
		"RetryAttempts":         st.RetryAttempts,
		"SlabHits + SlabMisses": st.SlabHits + st.SlabMisses,
	} {
		if v == 0 {
			t.Errorf("EngineStats.%s = 0 without WithLatencyCollection", name)
		}
	}
	if st.StoredBytes == 0 || st.LogicalBytes <= st.StoredBytes {
		t.Errorf("LogicalBytes %d, StoredBytes %d: want logical > stored > 0", st.LogicalBytes, st.StoredBytes)
	}
}
