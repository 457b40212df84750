package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// populate registers a pair with enough activity that every exposition
// family has at least one sample.
func populateExport(t *testing.T) *GraftMetrics {
	t.Helper()
	m := Register("pageevict", "bytecode")
	m.AddInvocations(1000)
	m.AddFuel(50000)
	for i := 0; i < 100; i++ {
		m.RecordLatency(time.Duration(i+1) * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		m.RecordError(fuelTrap())
	}
	m.RecordError(fmt.Errorf("plain failure"))
	return m
}

// TestMetricsRoundTripsPromParser is the acceptance gate: the full
// /metrics exposition must survive the text-format parser with the
// expected samples intact.
func TestMetricsRoundTripsPromParser(t *testing.T) {
	ResetMetrics()
	t.Cleanup(func() { ResetMetrics() })
	m := populateExport(t)
	m.Quarantine()
	m.SetNote(`weird"note\with escapes`)
	// A second pair with a name needing escaping in label values.
	odd := Register(`sched"quote`, "script")
	odd.AddInvocations(5)

	var b strings.Builder
	writeProm(&b, 10*time.Second)
	text := b.String()

	samples, err := ParsePromText(text)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}

	get := func(name string, kv ...string) PromSample {
		t.Helper()
		got := FindProm(samples, name, kv...)
		if len(got) != 1 {
			t.Fatalf("FindProm(%s, %v) = %d samples", name, kv, len(got))
		}
		return got[0]
	}

	if s := get("graftlab_invocations_total", "graft", "pageevict", "tech", "bytecode"); s.Value != 1000 {
		t.Errorf("invocations = %v", s.Value)
	}
	if s := get("graftlab_traps_total", "graft", "pageevict", "kind", "fuel exhausted"); s.Value != 10 {
		t.Errorf("fuel traps = %v", s.Value)
	}
	if s := get("graftlab_errors_total", "graft", "pageevict"); s.Value != 1 {
		t.Errorf("errors = %v", s.Value)
	}
	if s := get("graftlab_quarantined", "graft", "pageevict"); s.Value != 1 {
		t.Errorf("quarantined gauge = %v", s.Value)
	}
	if s := get("graftlab_quarantined", "graft", `sched"quote`); s.Value != 0 {
		t.Errorf("escaped-name pair quarantined = %v", s.Value)
	}

	// Histogram: bucket counts are cumulative and +Inf equals _count.
	inf := get("graftlab_latency_seconds_bucket", "graft", "pageevict", "le", "+Inf")
	count := get("graftlab_latency_seconds_count", "graft", "pageevict")
	if inf.Value != count.Value || count.Value != 100 {
		t.Errorf("histogram +Inf=%v count=%v, want 100", inf.Value, count.Value)
	}
	var prev float64
	for _, s := range FindProm(samples, "graftlab_latency_seconds_bucket", "graft", "pageevict") {
		if s.Label("le") == "+Inf" {
			continue
		}
		if s.Value < prev {
			t.Errorf("bucket counts not cumulative: %v after %v", s.Value, prev)
		}
		prev = s.Value
	}

	// Windowed gauges carry the window label and a non-zero p99: the
	// activity above just happened, so the 10s window must see it.
	if s := get("graftlab_window_rate", "graft", "pageevict", "window", "10s"); s.Value <= 0 {
		t.Errorf("window rate = %v, want > 0", s.Value)
	}
	p99 := get("graftlab_window_latency_seconds", "graft", "pageevict", "quantile", "0.99")
	if p99.Value <= 0 {
		t.Errorf("windowed p99 = %v, want > 0", p99.Value)
	}
	if s := get("graftlab_window_preempt_rate", "graft", "pageevict", "window", "10s"); s.Value != 0.01 {
		t.Errorf("window preempt rate = %v, want 0.01", s.Value)
	}
}

func TestParsePromTextRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"graftlab_x{graft=\"a\" 1",              // unterminated labels
		"graftlab_x{graft=a} 1",                 // unquoted value
		"graftlab_x{graft=\"a\"} notnum",        // bad value
		"1badname 2",                            // bad metric name
		"graftlab_x",                            // no value
		"graftlab_x{graft=\"a\",graft=\"b\"} 1", // duplicate label
		`graftlab_x{graft="a\q"} 1`,             // bad escape
	} {
		if _, err := ParsePromText(bad); err == nil {
			t.Errorf("ParsePromText(%q) accepted", bad)
		}
	}
	ok := "# HELP graftlab_x help text\n# TYPE graftlab_x counter\ngraftlab_x{a=\"b\"} 4.5 1700000000\n\n"
	samples, err := ParsePromText(ok)
	if err != nil || len(samples) != 1 || samples[0].Value != 4.5 {
		t.Errorf("ParsePromText(ok) = %v, %v", samples, err)
	}
}

// TestServeMetricsEndToEnd boots the real server on a loopback port and
// exercises all three endpoints over HTTP.
func TestServeMetricsEndToEnd(t *testing.T) {
	ResetMetrics()
	t.Cleanup(func() { ResetMetrics() })
	populateExport(t)

	srv, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// /metrics parses and respects ?window=.
	resp, err := http.Get(base + "/metrics?window=3s")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	samples, err := ParsePromText(string(body))
	if err != nil {
		t.Fatalf("served /metrics does not parse: %v", err)
	}
	if got := FindProm(samples, "graftlab_window_rate", "window", "3s"); len(got) == 0 {
		t.Error("?window=3s not reflected in window label")
	}

	// /debug/telemetry.json decodes into the dump shape.
	resp, err = http.Get(base + "/debug/telemetry.json")
	if err != nil {
		t.Fatal(err)
	}
	var dump DebugDump
	err = json.NewDecoder(resp.Body).Decode(&dump)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("debug json: %v", err)
	}
	if len(dump.Cumulative) != 1 || dump.Cumulative[0].Graft != "pageevict" {
		t.Errorf("dump.Cumulative = %+v", dump.Cumulative)
	}
	if len(dump.Windowed) != 1 || dump.Windowed[0].Invocations == 0 {
		t.Errorf("dump.Windowed = %+v", dump.Windowed)
	}
	if dump.WindowConfig.Width <= 0 || dump.WindowConfig.Buckets < 2 {
		t.Errorf("dump.WindowConfig = %+v", dump.WindowConfig)
	}

	// /stream delivers at least one SSE event promptly.
	req, _ := http.NewRequest("GET", base+"/stream?interval=20ms", nil)
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var data string
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			data = strings.TrimPrefix(sc.Text(), "data: ")
			break
		}
	}
	if data == "" {
		t.Fatal("no SSE data event")
	}
	var ws []WindowSnapshot
	if err := json.Unmarshal([]byte(data), &ws); err != nil {
		t.Fatalf("SSE payload: %v", err)
	}
	if len(ws) != 1 || ws[0].Graft != "pageevict" {
		t.Errorf("SSE snapshot = %+v", ws)
	}
}

// TestMetricsServerDropsSlowClients: a client that sends half a request
// line is disconnected once the header timeout passes, while a /stream
// client — a response that legitimately outlives any write deadline —
// keeps receiving events well past it. ServeMetrics runs with the
// package's fixed timeouts; the behaviour is exercised with a short one.
func TestMetricsServerDropsSlowClients(t *testing.T) {
	pub, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if got := pub.srv; got.ReadHeaderTimeout != metricsHeaderTimeout || got.IdleTimeout != metricsIdleTimeout || got.WriteTimeout != 0 {
		t.Errorf("ServeMetrics timeouts: header %v idle %v write %v", got.ReadHeaderTimeout, got.IdleTimeout, got.WriteTimeout)
	}
	pub.Close()

	const timeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serveMetrics(ln, timeout)
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/stream?interval=20ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /metr")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(10 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("half-request client: %v; want the server to close the connection", err)
	}
	if d := time.Since(start); d < timeout {
		t.Fatalf("half-request client dropped after %v, before the %v header timeout", d, timeout)
	}

	// The stream outlives the header timeout several times over.
	sc := bufio.NewScanner(resp.Body)
	for time.Since(start) < 3*timeout {
		if !sc.Scan() {
			t.Fatalf("stream ended after %v: %v", time.Since(start), sc.Err())
		}
	}
	events := 0
	for events < 3 && sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			events++
		}
	}
	if events < 3 {
		t.Fatalf("stream stopped delivering events after %v: %v", time.Since(start), sc.Err())
	}
}
