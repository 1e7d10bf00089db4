package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// notifyingWriter forwards to an underlying buffer and signals each
// write, so tests can wait for the "listening on" readiness line.
type notifyingWriter struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	notify chan struct{}
}

func (w *notifyingWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	n, err := w.buf.Write(b)
	w.mu.Unlock()
	select {
	case w.notify <- struct{}{}:
	default:
	}
	return n, err
}

func (w *notifyingWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startServe runs the binary's run() with the given extra args on an
// ephemeral port, waits until it listens, and returns its base URL plus
// a shutdown func that cancels and waits for the exit code.
func startServe(t *testing.T, args ...string) (string, *notifyingWriter, func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stdout := &notifyingWriter{notify: make(chan struct{}, 1)}
	var stderr bytes.Buffer
	code := make(chan int, 1)
	full := append([]string{"-addr", "127.0.0.1:0", "-quiet"}, args...)
	go func() { code <- run(ctx, full, stdout, &stderr) }()

	deadline := time.After(30 * time.Second)
	var addr string
	for addr == "" {
		if m := listenRE.FindStringSubmatch(stdout.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case <-stdout.notify:
		case c := <-code:
			t.Fatalf("server exited early with code %d\nstdout: %s\nstderr: %s", c, stdout.String(), stderr.String())
		case <-deadline:
			t.Fatalf("server never listened\nstdout: %s\nstderr: %s", stdout.String(), stderr.String())
		}
	}
	return "http://" + addr, stdout, func() int {
		cancel()
		select {
		case c := <-code:
			return c
		case <-time.After(30 * time.Second):
			t.Fatal("server did not shut down")
			return -1
		}
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: invalid JSON: %v\n%s", url, err, body)
		}
	}
}

var paperArgs = []string{"-example", "paper", "-sigma", "3", "-gamma", "0.6", "-minsize", "4", "-eps", "0.5", "-k", "10"}

func TestServeEndToEnd(t *testing.T) {
	base, _, shutdown := startServe(t, paperArgs...)

	var health struct {
		Status   string `json:"status"`
		Sets     int    `json:"sets"`
		Patterns int    `json:"patterns"`
	}
	getJSON(t, base+"/healthz", &health)
	if health.Status != "ok" || health.Sets != 3 || health.Patterns != 7 {
		t.Fatalf("healthz = %+v", health)
	}

	var sets struct {
		Total int `json:"total"`
	}
	getJSON(t, base+"/sets?rank=epsilon", &sets)
	if sets.Total != 3 {
		t.Fatalf("sets = %+v", sets)
	}

	var eps struct {
		Source  string  `json:"source"`
		Epsilon float64 `json:"epsilon"`
	}
	getJSON(t, base+"/epsilon?attrs=A,B", &eps)
	if eps.Source != "index" || eps.Epsilon != 1 {
		t.Fatalf("epsilon A,B = %+v", eps)
	}
	// {C} is not in the mined result: the on-demand path computes, the
	// repeat serves from cache.
	getJSON(t, base+"/epsilon?attrs=C", &eps)
	if eps.Source != "computed" {
		t.Fatalf("epsilon C = %+v", eps)
	}
	getJSON(t, base+"/epsilon?attrs=C", &eps)
	if eps.Source != "cache" {
		t.Fatalf("epsilon C repeat = %+v", eps)
	}

	if code := shutdown(); code != 0 {
		t.Fatalf("exit code %d", code)
	}
}

func TestServeSnapshotRoundTrip(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "paper.scpmidx")

	// First boot mines and writes the snapshot.
	_, stdout, shutdown := startServe(t, append([]string{"-snapshot", snap}, paperArgs...)...)
	if code := shutdown(); code != 0 {
		t.Fatalf("first boot exit %d", code)
	}
	if !strings.Contains(stdout.String(), "wrote v3 snapshot") {
		t.Fatalf("snapshot not written:\n%s", stdout.String())
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatal(err)
	}

	// Second boot restores it (and still answers queries). A v3
	// snapshot embeds the graph, so the dataset flags are ignored.
	base, stdout2, shutdown2 := startServe(t, append([]string{"-snapshot", snap}, paperArgs...)...)
	if !strings.Contains(stdout2.String(), "restored graph+index from v3 snapshot") {
		t.Fatalf("snapshot not restored:\n%s", stdout2.String())
	}
	if !strings.Contains(stdout2.String(), "-attrs/-edges/-example ignored") {
		t.Fatalf("dataset-flags-ignored note missing:\n%s", stdout2.String())
	}
	var health struct {
		Sets int `json:"sets"`
	}
	getJSON(t, base+"/healthz", &health)
	if health.Sets != 3 {
		t.Fatalf("restored healthz = %+v", health)
	}
	if code := shutdown2(); code != 0 {
		t.Fatalf("second boot exit %d", code)
	}
}

// TestServeV2SnapshotRegenerate boots a retired v2 (index-only)
// snapshot: the boot must fail with the "regenerate this snapshot"
// error rather than re-mine over the file or misreport it as corrupt.
func TestServeV2SnapshotRegenerate(t *testing.T) {
	v2, err := os.ReadFile(filepath.Join("..", "..", "internal", "snapshot", "testdata", "quickstart-v2.idx"))
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "paper.scpmidx")
	if err := os.WriteFile(snap, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), append([]string{"-snapshot", snap}, paperArgs...), &stdout, &stderr); code != 1 {
		t.Fatalf("v2 snapshot boot: exit %d\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "regenerate this snapshot") {
		t.Fatalf("regenerate diagnosis missing:\n%s", stderr.String())
	}
	if got, err := os.ReadFile(snap); err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("v2 snapshot was modified (err=%v)", err)
	}
}

// TestServeSnapshotMatchesMinedBoot boots the paper example twice,
// both frozen: first mining it (which writes the snapshot), then from
// that snapshot alone, with no dataset flags. The same request
// sequence must get byte-identical bodies from both boots — /stats
// too, since the snapshot carries the writing run's mining counters.
func TestServeSnapshotMatchesMinedBoot(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "paper.scpmidx")

	// The same query sequence per boot; /epsilon?attrs=C twice checks
	// the computed and the cached answer both match across boots.
	paths := []string{
		"/sets?rank=epsilon", "/sets?attrs=A", "/patterns", "/healthz",
		"/epsilon?attrs=A,B", "/epsilon?attrs=C", "/epsilon?attrs=C",
		"/vertices/1", "/stats",
	}
	fetch := func(boot string, args ...string) []string {
		base, stdout, shutdown := startServe(t, append([]string{"-snapshot", snap, "-no-updates"}, args...)...)
		defer shutdown()
		if restored := strings.Contains(stdout.String(), "restored graph+index from v3 snapshot"); restored != (boot == "snapshot") {
			t.Fatalf("%s boot: restored from snapshot = %v:\n%s", boot, restored, stdout.String())
		}
		bodies := make([]string, len(paths))
		for i, p := range paths {
			resp, err := http.Get(base + p)
			if err != nil {
				t.Fatal(err)
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s boot: GET %s = %d: %s", boot, p, resp.StatusCode, b)
			}
			bodies[i] = string(b)
		}
		return bodies
	}

	mined := fetch("mining", paperArgs...)
	restored := fetch("snapshot")
	for i, p := range paths {
		if mined[i] != restored[i] {
			t.Fatalf("GET %s differs between boots:\nmined:    %s\nsnapshot: %s", p, mined[i], restored[i])
		}
	}
}

// TestServeLiveUpdates drives the dynamic path over real HTTP: POST an
// update batch, wait for the background remine to swap, check the
// version endpoints and the re-served set, then restart from the
// write-behind snapshot and confirm the updated data survived.
func TestServeLiveUpdates(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "paper.scpmidx")
	base, stdout, shutdown := startServe(t, append([]string{"-snapshot", snap}, paperArgs...)...)

	var ver struct {
		Served  float64 `json:"served_version"`
		Data    float64 `json:"data_version"`
		Enabled bool    `json:"updates_enabled"`
	}
	getJSON(t, base+"/version", &ver)
	if !ver.Enabled || ver.Served != 1 || ver.Data != 1 {
		t.Fatalf("initial /version = %+v", ver)
	}

	var before struct {
		Sets []struct {
			ID      string `json:"id"`
			Support int    `json:"support"`
		} `json:"sets"`
	}
	getJSON(t, base+"/sets?attrs=A", &before)
	if len(before.Sets) != 1 {
		t.Fatalf("sets?attrs=A = %+v", before.Sets)
	}

	body := `{"op":"add_vertex","vertex":"12","attrs":["A"]}` + "\n" +
		`{"op":"add_edge","u":"12","v":"1"}` + "\n"
	resp, err := http.Post(base+"/updates", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /updates = %d: %s", resp.StatusCode, raw)
	}

	deadline := time.After(30 * time.Second)
	for {
		getJSON(t, base+"/version", &ver)
		if ver.Served == 2 && ver.Data == 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("served version never reached the data head: %+v", ver)
		case <-time.After(50 * time.Millisecond):
		}
	}

	var after struct {
		Sets []struct {
			ID      string `json:"id"`
			Support int    `json:"support"`
		} `json:"sets"`
	}
	getJSON(t, base+"/sets?attrs=A", &after)
	if len(after.Sets) != 1 || after.Sets[0].Support != before.Sets[0].Support+1 {
		t.Fatalf("updated set not re-served: %+v vs %+v", after.Sets, before.Sets)
	}
	if after.Sets[0].ID != before.Sets[0].ID {
		t.Fatal("stable id changed across the update")
	}

	// Wait for the write-behind to land before shutting down (the swap
	// publishes before the snapshot refresh is logged). v3 embeds the
	// updated graph in the snapshot itself — no dataset sidecars.
	refreshDeadline := time.After(30 * time.Second)
	for !strings.Contains(stdout.String(), "refreshed snapshot") {
		select {
		case <-refreshDeadline:
			t.Fatal("snapshot write-behind never ran")
		case <-time.After(50 * time.Millisecond):
		}
	}
	if code := shutdown(); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if _, err := os.Stat(snap + ".attrs"); err == nil {
		t.Fatal("v3 write-behind left dataset sidecars")
	}

	// Restart: the boot must restore the UPDATED graph+index from the
	// refreshed v3 snapshot and serve the post-update support at once.
	base2, stdout2, shutdown2 := startServe(t, append([]string{"-snapshot", snap}, paperArgs...)...)
	if !strings.Contains(stdout2.String(), "restored graph+index from v3 snapshot") {
		t.Fatalf("restart did not restore the refreshed snapshot:\n%s", stdout2.String())
	}
	var again struct {
		Sets []struct {
			Support int `json:"support"`
		} `json:"sets"`
	}
	getJSON(t, base2+"/sets?attrs=A", &again)
	if len(again.Sets) != 1 || again.Sets[0].Support != before.Sets[0].Support+1 {
		t.Fatalf("restart lost the update: %+v", again.Sets)
	}
	if code := shutdown2(); code != 0 {
		t.Fatalf("restart exit %d", code)
	}
}

// TestServeNoUpdatesFlag pins the -no-updates escape hatch.
func TestServeNoUpdatesFlag(t *testing.T) {
	base, _, shutdown := startServe(t, append([]string{"-no-updates"}, paperArgs...)...)
	resp, err := http.Post(base+"/updates", "application/x-ndjson",
		strings.NewReader(`{"op":"add_vertex","vertex":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("POST /updates with -no-updates = %d", resp.StatusCode)
	}
	if code := shutdown(); code != 0 {
		t.Fatalf("exit %d", code)
	}
}

// TestServeParallelFlag: the canonical worker-count flag works and the
// long-deprecated -parallelism alias (removed with the sharding flags)
// is rejected.
func TestServeParallelFlag(t *testing.T) {
	base, _, shutdown := startServe(t, append([]string{"-parallel", "2"}, paperArgs...)...)
	var health struct {
		Sets int `json:"sets"`
	}
	getJSON(t, base+"/healthz", &health)
	if health.Sets != 3 {
		t.Fatalf("healthz = %+v", health)
	}
	if code := shutdown(); code != 0 {
		t.Fatalf("exit %d", code)
	}

	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), append([]string{"-parallelism", "2"}, paperArgs...), &stdout, &stderr); code != 2 {
		t.Fatalf("-parallelism accepted (exit %d), want flag error", code)
	}
}

// TestServeSharded boots every shard of a 2-way split and checks the
// slices are disjoint and together cover the unsharded index.
func TestServeSharded(t *testing.T) {
	type setsPayload struct {
		Sets []struct {
			ID string `json:"id"`
		} `json:"sets"`
		Total int `json:"total"`
	}
	var whole setsPayload
	base, _, shutdown := startServe(t, paperArgs...)
	getJSON(t, base+"/sets", &whole)
	if code := shutdown(); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if whole.Total == 0 {
		t.Fatal("unsharded serve has no sets")
	}

	seen := make(map[string]int)
	shardTotal := 0
	for k := 0; k < 2; k++ {
		base, _, shutdown := startServe(t, append([]string{"-shard", fmt.Sprintf("%d/2", k)}, paperArgs...)...)
		var slice setsPayload
		getJSON(t, base+"/sets", &slice)
		shardTotal += slice.Total
		for _, s := range slice.Sets {
			seen[s.ID]++
		}
		if code := shutdown(); code != 0 {
			t.Fatalf("shard %d: exit %d", k, code)
		}
	}
	if shardTotal != whole.Total {
		t.Fatalf("shards serve %d sets, unsharded serves %d", shardTotal, whole.Total)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("set %s served by %d shards", id, n)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), append([]string{"-shard", "2/2"}, paperArgs...), &stdout, &stderr); code != 2 {
		t.Fatalf("-shard 2/2 accepted (exit %d)", code)
	}
	if code := run(context.Background(), append([]string{"-shard", "bogus"}, paperArgs...), &stdout, &stderr); code != 2 {
		t.Fatalf("-shard bogus accepted (exit %d)", code)
	}
}

func TestServeVersionFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "scpm-serve") {
		t.Fatalf("version output %q", stdout.String())
	}
}

func TestServeFlagErrors(t *testing.T) {
	cases := [][]string{
		{},                                   // no dataset
		{"-example", "nope"},                 // unknown example
		{"-example", "paper", "-attrs", "x"}, // conflicting selection
		{"-example", "paper", "-eps-mode", "bogus"},
		{"-example", "paper", "-gamma", "7"}, // invalid params
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Fatalf("args %v: exit %d, want 2\nstderr: %s", args, code, stderr.String())
		}
	}
}

func TestServeRequestLogging(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stdout := &notifyingWriter{notify: make(chan struct{}, 1)}
	var stderr bytes.Buffer
	code := make(chan int, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, paperArgs...) // no -quiet
	go func() { code <- run(ctx, args, stdout, &stderr) }()
	deadline := time.After(30 * time.Second)
	var addr string
	for addr == "" {
		if m := listenRE.FindStringSubmatch(stdout.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case <-stdout.notify:
		case <-deadline:
			t.Fatalf("never listened: %s", stderr.String())
		}
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()
	<-code
	// Structured key=value access log: one line per request carrying the
	// method, path, status, size, duration and serving generation.
	for _, want := range []string{"msg=request", "method=GET", "path=/healthz", "status=200", "bytes=", "duration=", "generation="} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("request log missing %q:\n%s", want, stderr.String())
		}
	}
}

// TestServeMetricsAndReadyz: the main listener serves the metrics
// exposition, the pprof index and the readiness probe, and
// -metrics-addr opens a second listener carrying the same registry.
func TestServeMetricsAndReadyz(t *testing.T) {
	base, stdout, shutdown := startServe(t, append([]string{"-metrics-addr", "127.0.0.1:0"}, paperArgs...)...)
	defer shutdown()

	var ready struct {
		Ready         bool   `json:"ready"`
		ServedVersion uint64 `json:"served_version"`
	}
	getJSON(t, base+"/readyz", &ready)
	if !ready.Ready || ready.ServedVersion != 1 {
		t.Fatalf("readyz = %+v", ready)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d: %s", resp.StatusCode, body)
	}
	// The serving series, the boot-time mining gauges and the runtime
	// gauges all land in the one process-wide registry.
	for _, want := range []string{
		`scpm_http_requests_total{endpoint="/readyz",class="2xx"} 1`,
		"scpm_mining_sets_evaluated",
		"scpm_go_goroutines",
		"scpm_ready 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/cmdline = %d", resp.StatusCode)
	}

	// The -metrics-addr side listener scrapes the same registry.
	m := regexp.MustCompile(`metrics on (\S+)`).FindStringSubmatch(stdout.String())
	if m == nil {
		t.Fatalf("no metrics-addr announcement in stdout:\n%s", stdout.String())
	}
	resp, err = http.Get("http://" + m[1] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	side, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("side listener /metrics = %d", resp.StatusCode)
	}
	if !strings.Contains(string(side), "scpm_http_requests_total") {
		t.Fatalf("side listener exposition missing serving series:\n%s", side)
	}
}
