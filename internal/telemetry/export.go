package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Live export surface: the windowed plane is only useful if something
// can watch it. This file serves three views over the same registry —
// a Prometheus text-format /metrics endpoint (cumulative counters plus
// windowed gauges, the shape a real fleet would scrape), a
// /debug/telemetry.json dump for humans and scripts, and an SSE /stream
// that pushes per-window snapshots on an interval for live consumers
// like cmd/graftmon. Everything is stdlib net/http; handlers only read
// atomics, so scraping never perturbs the measured path beyond the
// snapshot cost itself.

// DefaultExportWindow is the window /metrics and /stream aggregate when
// the request does not override it with ?window=; it matches the
// watchdog's default fast window.
const DefaultExportWindow = 10 * time.Second

// Slow-client bounds for ServeMetrics: a client has metricsHeaderTimeout
// to send its request headers, and an idle keep-alive connection is
// closed after metricsIdleTimeout. There is deliberately no write
// timeout — /stream is a long-lived SSE response.
const (
	metricsHeaderTimeout = 5 * time.Second
	metricsIdleTimeout   = 60 * time.Second
)

// MetricsServer is a running export surface. Close shuts it down.
type MetricsServer struct {
	srv *http.Server
	ln  net.Listener
}

// Addr reports the bound address (useful with ":0").
func (s *MetricsServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down, waiting briefly for in-flight requests.
func (s *MetricsServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// ServeMetrics binds addr (e.g. ":9090" or "127.0.0.1:0") and serves
// the export surface until Close:
//
//	/metrics               Prometheus text format
//	/debug/telemetry.json  full JSON dump (cumulative + windowed)
//	/stream                SSE: one []WindowSnapshot event per interval
//
// Both /metrics and /stream accept ?window=<duration> to choose the
// aggregation window (default 10s, clamped to the ring span); /stream
// also accepts ?interval=<duration> (default 1s).
func ServeMetrics(addr string) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: metrics listener: %w", err)
	}
	return serveMetrics(ln, metricsHeaderTimeout), nil
}

// serveMetrics serves the export surface on ln, dropping clients that
// take longer than headerTimeout to send their request headers.
func serveMetrics(ln net.Listener, headerTimeout time.Duration) *MetricsServer {
	s := &MetricsServer{
		srv: &http.Server{
			Handler:           NewMetricsHandler(),
			ReadHeaderTimeout: headerTimeout,
			IdleTimeout:       metricsIdleTimeout,
		},
		ln: ln,
	}
	go s.srv.Serve(ln) //nolint:errcheck // Shutdown's ErrServerClosed is the normal exit
	return s
}

// NewMetricsHandler returns the export surface as a plain http.Handler,
// for embedding into an existing mux (graftd will mount it).
func NewMetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", handleMetrics)
	mux.HandleFunc("/debug/telemetry.json", handleDebugJSON)
	mux.HandleFunc("/stream", handleStream)
	return mux
}

// queryWindow parses ?window= with a default; invalid values fall back
// rather than erroring (a scrape must not fail on a typo'd dashboard).
func queryWindow(r *http.Request) time.Duration {
	if v := r.URL.Query().Get("window"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			return d
		}
	}
	return DefaultExportWindow
}

// promEscape escapes a label value per the Prometheus text exposition
// format: backslash, double-quote, and newline.
func promEscape(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// writeProm writes the full exposition. Cumulative counters keep their
// since-boot semantics (Prometheus computes its own rates from them);
// windowed gauges carry a window label so dashboards can tell a 10s
// burn rate from a 5m one when both are scraped.
func writeProm(w *strings.Builder, window time.Duration) {
	ms := Metrics()

	type row struct {
		m *GraftMetrics
		s GraftSnapshot
		v WindowSnapshot
	}
	rows := make([]row, 0, len(ms))
	for _, m := range ms {
		rows = append(rows, row{m: m, s: m.Snapshot(), v: m.Window(window)})
	}
	lbl := func(r row) string {
		return fmt.Sprintf(`graft="%s",tech="%s"`, promEscape(r.s.Graft), promEscape(r.s.Tech))
	}

	head := func(name, typ, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	head("graftlab_invocations_total", "counter", "Invocations since process start.")
	for _, r := range rows {
		fmt.Fprintf(w, "graftlab_invocations_total{%s} %d\n", lbl(r), r.s.Invocations)
	}
	head("graftlab_errors_total", "counter", "Non-trap invocation errors since process start.")
	for _, r := range rows {
		fmt.Fprintf(w, "graftlab_errors_total{%s} %d\n", lbl(r), r.s.Errors)
	}
	head("graftlab_traps_total", "counter", "Trapped invocations since process start, by trap kind.")
	for _, r := range rows {
		kinds := make([]string, 0, len(r.s.Traps))
		for k := range r.s.Traps {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(w, "graftlab_traps_total{%s,kind=\"%s\"} %d\n", lbl(r), promEscape(k), r.s.Traps[k])
		}
	}
	head("graftlab_fuel_total", "counter", "Fuel consumed since process start (metered engines).")
	for _, r := range rows {
		fmt.Fprintf(w, "graftlab_fuel_total{%s} %d\n", lbl(r), r.s.FuelConsumed)
	}
	head("graftlab_quarantined", "gauge", "1 when the pair is on the watchdog deny-list.")
	for _, r := range rows {
		q := 0
		if r.s.Quarantined {
			q = 1
		}
		fmt.Fprintf(w, "graftlab_quarantined{%s} %d\n", lbl(r), q)
	}

	// Sampled-latency histogram, cumulative, in the native Prometheus
	// histogram shape: le boundaries at the log2 bucket edges (seconds).
	head("graftlab_latency_seconds", "histogram", "Sampled invocation latency since process start.")
	for _, r := range rows {
		h := r.m.Latency()
		var cum uint64
		for i := 0; i < numBuckets; i++ {
			n := h.buckets[i].Load()
			if n == 0 {
				continue
			}
			cum += n
			// Bucket i holds ns with bit length i: upper edge 2^i - 1 ns.
			edge := float64(uint64(1)<<uint(i)-1) / 1e9
			fmt.Fprintf(w, "graftlab_latency_seconds_bucket{%s,le=\"%g\"} %d\n", lbl(r), edge, cum)
		}
		fmt.Fprintf(w, "graftlab_latency_seconds_bucket{%s,le=\"+Inf\"} %d\n", lbl(r), h.Count())
		fmt.Fprintf(w, "graftlab_latency_seconds_sum{%s} %g\n", lbl(r), float64(h.sum.Load())/1e9)
		fmt.Fprintf(w, "graftlab_latency_seconds_count{%s} %d\n", lbl(r), h.Count())
	}

	// Windowed gauges: the "now" view. The window label disambiguates
	// scrapes at different widths.
	wl := func(r row) string { return fmt.Sprintf(`%s,window="%s"`, lbl(r), window) }
	head("graftlab_window_rate", "gauge", "Invocations per second over the trailing window.")
	for _, r := range rows {
		fmt.Fprintf(w, "graftlab_window_rate{%s} %g\n", wl(r), r.v.Rate)
	}
	head("graftlab_window_trap_ratio", "gauge", "(traps+errors)/invocations over the trailing window.")
	for _, r := range rows {
		fmt.Fprintf(w, "graftlab_window_trap_ratio{%s} %g\n", wl(r), r.v.TrapRatio)
	}
	head("graftlab_window_preempt_rate", "gauge", "Fuel preemptions per invocation over the trailing window.")
	for _, r := range rows {
		fmt.Fprintf(w, "graftlab_window_preempt_rate{%s} %g\n", wl(r), r.v.PreemptRate)
	}
	head("graftlab_window_fuel_per_second", "gauge", "Fuel consumed per second over the trailing window.")
	for _, r := range rows {
		fmt.Fprintf(w, "graftlab_window_fuel_per_second{%s} %g\n", wl(r), r.v.FuelPerSec)
	}
	head("graftlab_window_latency_seconds", "gauge", "Sampled latency quantiles over the trailing window.")
	for _, r := range rows {
		if r.v.LatencySamples == 0 {
			continue
		}
		for _, q := range []struct {
			q string
			d time.Duration
		}{{"0.5", r.v.P50}, {"0.95", r.v.P95}, {"0.99", r.v.P99}} {
			fmt.Fprintf(w, "graftlab_window_latency_seconds{%s,quantile=\"%s\"} %g\n",
				wl(r), q.q, float64(q.d)/1e9)
		}
	}
}

func handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	writeProm(&b, queryWindow(r))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}

// DebugDump is the /debug/telemetry.json document.
type DebugDump struct {
	Enabled      bool             `json:"enabled"`
	Window       time.Duration    `json:"window"`
	WindowConfig WindowConfig     `json:"window_config"`
	Cumulative   []GraftSnapshot  `json:"cumulative"`
	Windowed     []WindowSnapshot `json:"windowed"`
}

func handleDebugJSON(w http.ResponseWriter, r *http.Request) {
	d := queryWindow(r)
	dump := DebugDump{
		Enabled: Enabled(),
		Window:  d,
		WindowConfig: WindowConfig{
			Width:   time.Duration(windowWidth.Load()),
			Buckets: int(windowBuckets.Load()),
		},
		Cumulative: SnapshotAll(),
		Windowed:   WindowAll(d),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(dump) //nolint:errcheck // client gone is the only failure
}

// handleStream pushes one SSE event per interval: `data:` carries the
// JSON []WindowSnapshot for the requested window. Consumers (graftmon,
// curl -N) get a live per-window delta feed without polling /metrics.
func handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	interval := time.Second
	if v := r.URL.Query().Get("interval"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d >= 10*time.Millisecond {
			interval = d
		}
	}
	window := queryWindow(r)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	t := time.NewTicker(interval)
	defer t.Stop()
	send := func() bool {
		raw, err := json.Marshal(WindowAll(window))
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: windows\ndata: %s\n\n", raw); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if !send() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-t.C:
			if !send() {
				return
			}
		}
	}
}
