package main

import (
	"testing"
	"time"

	"lamassu/internal/backend/objstore"
)

// fingerprint is what must not change when a stack is traced: the
// requests the object server saw, the work each leaf store did, and the
// blocks the downstream dedup controller finds.
type fingerprint struct {
	srv                                objstore.ServerStats
	opens, reads, writes, syncs, other int64
	bytesRead, bytesWritten            int64
	files                              int
	totalBlocks, uniqueBlocks          int64
}

// TestTracedStackMatchesUntraced runs each workload for a fixed amount of
// work on one seed, once untraced and once with every decorator tracing
// and latency collection on, and requires identical object-server
// request counts, leaf-store work and dedup block counts: the traced run
// measures the same program.
//
// Some reads depend on timing in the program itself, so where they occur
// only the write side and the dedup counts are compared, and an "exact"
// case turns the source off and compares everything. On remote,
// asynchronous readahead races the reader it runs ahead of, and fetches
// in flight together in the I/O window can miss the cache for the same
// block; on serve, the two concurrent clients' interleaving decides the
// order in which the shared block cache evicts.
func TestTracedStackMatchesUntraced(t *testing.T) {
	serial := remoteConfig
	serial.readahead, serial.window = 0, 1
	cases := []struct {
		name       string
		w          workload
		work       int // rounds, or requests per serve client
		oneClient  bool
		exactReads bool
	}{
		{"stream", workloads["stream"], 2, false, true},
		{"remote", workloads["remote"], 1, false, false},
		{"remote-exact", mountWorkload(&serial), 1, false, true},
		{"serve", workloads["serve"], 150, false, false},
		{"serve-exact", workloads["serve"], 150, true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got [2]fingerprint
			for i, tr := range []*tracer{nil, newTracer()} {
				in, err := c.w.prepare(7)(tr)
				if err != nil {
					t.Fatal(err)
				}
				if si, ok := in.(*serveInstance); ok && c.oneClient {
					si.clients = si.clients[:1]
				}
				ls, err := in.run(time.Now().Add(time.Hour), c.work)
				if err != nil {
					in.close()
					t.Fatal(err)
				}
				if o := summarize(ls, false, 1); o.failed != 0 || o.attempted == 0 {
					t.Fatalf("%d of %d operations failed", o.failed, o.attempted)
				}
				s := in.snapshot()
				rep, err := scan(in)
				if err != nil {
					t.Fatal(err)
				}
				if err := in.close(); err != nil {
					t.Fatal(err)
				}
				l := s.leaf
				got[i] = fingerprint{s.srv, l.opens, l.reads, l.writes, l.syncs, l.other,
					l.bytesRead, l.bytesWritten, rep.Files, rep.TotalBlocks, rep.UniqueBlocks}
				if !c.exactReads {
					got[i].srv.Gets, got[i].srv.BytesOut, got[i].reads, got[i].bytesRead = 0, 0, 0, 0
				}
			}
			if got[0] != got[1] {
				t.Errorf("traced stack differs from untraced:\n untraced %+v\n traced   %+v", got[0], got[1])
			}
		})
	}
}
