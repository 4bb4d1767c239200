// Serving the mount: start an in-process lamassud-style server over a
// temp directory with two tenants, then exercise the wire API the way
// curl would — write, read, list, stat, scrape metrics — and show the
// cryptographic tenant isolation (same logical name, distinct
// namespaces) plus a graceful drain.
//
//	go run ./examples/serve
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"lamassu"
	"lamassu/internal/serve"
)

const (
	aliceToken = "alice-demo-token-0001"
	bobToken   = "bob-demo-token-0002"
	adminToken = "admin-demo-token-0003"
)

func main() {
	dir, err := os.MkdirTemp("", "lamassu-serve-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. A mount exactly as lamassud builds it: encrypted names are the
	//    tenant-isolation layer, latency collection adds the Figure 9
	//    breakdown to /metrics.
	keys, err := lamassu.GenerateKeys()
	if err != nil {
		log.Fatal(err)
	}
	storage, err := lamassu.NewDirStorage(dir)
	if err != nil {
		log.Fatal(err)
	}
	m, err := lamassu.New(storage, keys,
		lamassu.WithEncryptedNames(),
		lamassu.WithLatencyCollection())
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()

	// 2. The tenant map — in production this is a config file passed to
	//    lamassud via -tenants, same grammar.
	tenants, err := serve.ParseTenants([]byte(`
tenant: alice ` + aliceToken + `
tenant: bob   ` + bobToken + `
admin:  ` + adminToken + `
`))
	if err != nil {
		log.Fatal(err)
	}

	srv, err := serve.New(serve.Config{Mount: m, Tenants: tenants, MaxInFlight: 32})
	if err != nil {
		log.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, shutdown := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve.Graceful(ctx, lis, srv, serve.GracefulConfig{DrainTimeout: 5 * time.Second}) }()
	base := "http://" + lis.Addr().String()
	fmt.Println("serving on", base)

	// 3. Both tenants store the same logical name; each sees only its
	//    own bytes, and the backing directory shows only encrypted
	//    names — no "alice", no "report.txt".
	must(put(base, aliceToken, "report.txt", []byte("alice's quarterly numbers")))
	must(put(base, bobToken, "report.txt", []byte("bob's very different report")))
	fmt.Printf("alice reads: %s\n", mustBody(get(base, aliceToken, "report.txt")))
	fmt.Printf("bob reads:   %s\n", mustBody(get(base, bobToken, "report.txt")))

	entries, _ := os.ReadDir(dir)
	fmt.Printf("backing dir holds %d objects; first: %.32s...\n", len(entries), entries[0].Name())

	// 4. Listing and stat over the wire.
	page := mustBody(get(base, aliceToken, "")) // GET /v1/list via helper below
	var listing struct {
		Entries []struct {
			Name string `json:"name"`
			Size int64  `json:"size"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(page, &listing); err != nil {
		log.Fatal(err)
	}
	for _, e := range listing.Entries {
		fmt.Printf("alice's namespace: %s (%d bytes)\n", e.Name, e.Size)
	}

	// 5. Prometheus metrics: every engine counter, scrapeable.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "lamassu_serve_requests_total") || strings.HasPrefix(line, "lamassu_backend_ios_total") {
			fmt.Println("metric:", line)
		}
	}

	// 6. Graceful shutdown: drain, then close the mount (deferred).
	shutdown()
	if err := <-served; err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained and shut down cleanly")
}

func put(base, token, name string, data []byte) error {
	req, err := http.NewRequest("PUT", base+"/v1/files/"+name, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("PUT %s: status %d", name, resp.StatusCode)
	}
	return nil
}

// get fetches a file, or the namespace listing when name is "".
func get(base, token, name string) ([]byte, error) {
	url := base + "/v1/files/" + name
	if name == "" {
		url = base + "/v1/list"
	}
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func mustBody(b []byte, err error) []byte {
	must(err)
	return b
}
