package cli

import (
	"flag"
	"os"
	"strings"
	"testing"

	"fedgpo/internal/exp"
	"fedgpo/internal/runtime"
)

func parse(t *testing.T, args ...string) *RuntimeFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// The shared block must register every runtime flag once, with the
// pool backend as the default.
func TestRegisterDefaultsAndParsing(t *testing.T) {
	f := parse(t)
	if f.Backend() != "pool" || f.Parallel != 0 || f.CacheDir != "" || f.CacheMaxBytes != 0 || f.Workers != "" {
		t.Errorf("unexpected defaults: %+v", f)
	}
	if f.ListScenarios {
		t.Error("list-scenarios should default to false")
	}
	f = parse(t, "-parallel", "3", "-cachedir", "/tmp/x",
		"-cache-max-bytes", "1024", "-workers", "10.0.0.5:9331, 10.0.0.6:9331")
	if f.Parallel != 3 || f.CacheDir != "/tmp/x" || f.CacheMaxBytes != 1024 || f.Backend() != "tcp" {
		t.Errorf("flags not parsed: %+v", f)
	}
	if got := f.remotes(); len(got) != 2 || got[0] != "10.0.0.5:9331" || got[1] != "10.0.0.6:9331" {
		t.Errorf("remotes = %v", got)
	}
}

// -workers must select the shard coordinator, one TCP endpoint per
// address, and the backend label the CLIs print must name it.
func TestRuntimeBuildsTCPWorkers(t *testing.T) {
	f := parse(t, "-workers", "127.0.0.1:9331,127.0.0.1:9332")
	rt, err := f.Runtime()
	if err != nil {
		t.Fatal(err)
	}
	if f.Backend() != "tcp" {
		t.Errorf("backend label = %q with -workers, want tcp", f.Backend())
	}
	// No dial happens at construction; the endpoints are visible in the
	// stats snapshot and each remote counts as one worker until its
	// hello advertises a capacity.
	eps := rt.Stats().Endpoints
	if len(eps) != 2 || eps[0].Endpoint != "tcp:127.0.0.1:9331" || eps[1].Endpoint != "tcp:127.0.0.1:9332" {
		t.Fatalf("remote-only endpoints = %+v", eps)
	}
	if rt.Workers() != 2 {
		t.Errorf("remote-only workers = %d, want 2", rt.Workers())
	}

}

// Runtime must build a pool runtime with the requested worker count
// and prune the cache directory to the configured byte budget at
// startup. Each entry is written through its own cache, so the
// directory holds six packs, and a 1-byte budget removes them all.
func TestRuntimeBuildsPoolAndPrunes(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 6; i++ {
		cache, err := runtime.NewCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.Put(strings.Repeat("k", i+1), runtime.Result{Key: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if packs, _ := os.ReadDir(dir); len(packs) != 6 {
		t.Fatalf("six caches wrote %d files, want 6 packs", len(packs))
	}
	f := parse(t, "-parallel", "2", "-cachedir", dir, "-cache-max-bytes", "1")
	rt, err := f.Runtime()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Workers() != 2 {
		t.Errorf("runtime workers = %d, want 2", rt.Workers())
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("cache dir holds %d packs after a 1-byte budget prune", len(left))
	}
}

// -list-scenarios must print every preset with parseable resolved
// spec JSON, and stay inert when not requested.
func TestHandleListScenarios(t *testing.T) {
	var quiet strings.Builder
	if parse(t).HandleListScenarios(&quiet) {
		t.Fatal("HandleListScenarios fired without the flag")
	}
	if quiet.Len() != 0 {
		t.Errorf("inert call wrote %q", quiet.String())
	}
	var out strings.Builder
	if !parse(t, "-list-scenarios").HandleListScenarios(&out) {
		t.Fatal("HandleListScenarios did not fire with the flag")
	}
	s := out.String()
	for _, p := range exp.Presets() {
		if !strings.Contains(s, p.Name+" — ") {
			t.Errorf("listing missing preset %q", p.Name)
		}
	}
	// Every JSON block decodes back into a valid scenario spec
	// (presets are separated by blank lines; the indented JSON holds
	// none).
	decoded := 0
	for _, block := range strings.Split(s, "\n\n") {
		i := strings.Index(block, "{")
		if i < 0 {
			continue
		}
		specs, err := exp.DecodeScenarios([]byte(block[i:]))
		if err != nil {
			t.Fatalf("listing JSON does not decode: %v", err)
		}
		decoded += len(specs)
	}
	if decoded != len(exp.Presets()) {
		t.Errorf("listing decoded %d specs, want %d", decoded, len(exp.Presets()))
	}
}

// A malformed -workers address and an unknown trace level must fail
// loudly at startup, not at first batch.
func TestRuntimeRejectsBadBackendConfig(t *testing.T) {
	if _, err := parse(t, "-workers", "127.0.0.1:9331,localhost").Runtime(); err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Errorf("port-less -workers address error = %v", err)
	}
	if _, err := parse(t, "-trace-level", "bogus").Runtime(); err == nil || !strings.Contains(err.Error(), "trace-level") {
		t.Errorf("bogus trace level error = %v", err)
	}
}

// -parallel sizes the in-process pool only: with -workers the fleet's
// capacity is what the pools advertise (one per endpoint until their
// hellos arrive), never the local core count or a -parallel cap.
func TestRuntimeBuildsProcs(t *testing.T) {
	f := parse(t, "-parallel", "3")
	rt, err := f.Runtime()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Workers() != 3 || f.Backend() != "pool" || len(rt.Stats().Endpoints) != 0 {
		t.Errorf("-parallel 3 built %d workers on %q with %d endpoints, want a 3-worker pool",
			rt.Workers(), f.Backend(), len(rt.Stats().Endpoints))
	}
	f = parse(t, "-parallel", "3", "-workers", "127.0.0.1:9331")
	rt, err = f.Runtime()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Workers() != 1 || f.Backend() != "tcp" || len(rt.Stats().Endpoints) != 1 {
		t.Errorf("-workers with -parallel 3 built %d workers on %q with %d endpoints, want one unprobed TCP endpoint",
			rt.Workers(), f.Backend(), len(rt.Stats().Endpoints))
	}
}

// EndpointLine appends the pushed-snapshot column only when the
// coordinator pushed snapshot bytes there, so pool-backend and
// snapshot-free summaries are unchanged.
func TestEndpointLineSchedulingColumns(t *testing.T) {
	base := runtime.EndpointStats{Endpoint: "tcp:10.0.0.5:9331", Dispatched: 12, Retried: 1}
	if line := EndpointLine(base); strings.Contains(line, "snaps") {
		t.Errorf("idle snapshot column leaked into %q", line)
	}
	ep := base
	ep.SnapBytesSent = 4096
	if line := EndpointLine(ep); !strings.Contains(line, ", 4096 B snaps pushed\n") {
		t.Errorf("EndpointLine = %q, missing %q", line, "4096 B snaps pushed")
	}
}

// Both -v summaries print the fleet in EndpointStats order, which the
// coordinator sorts by name — so two runs over the same fleet list
// endpoints identically regardless of dispatch timing.
func TestEndpointOrderingDeterministic(t *testing.T) {
	rt, err := parse(t, "-workers", "127.0.0.1:9332,127.0.0.1:9331").Runtime()
	if err != nil {
		t.Fatal(err)
	}
	eps := rt.Stats().Endpoints
	if len(eps) != 2 {
		t.Fatalf("endpoints = %d, want 2", len(eps))
	}
	if eps[0].Endpoint > eps[1].Endpoint {
		t.Errorf("endpoint stats not sorted by name: %q before %q", eps[0].Endpoint, eps[1].Endpoint)
	}
}
