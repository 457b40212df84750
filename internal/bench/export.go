package bench

import (
	"encoding/json"
	"os"
	"runtime"

	"graftlab/internal/telemetry"
)

// HostInfo records where a report was produced, so archived runs can be
// compared across machines.
type HostInfo struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
	Hostname  string `json:"hostname,omitempty"`
}

// CollectHost snapshots the current machine.
func CollectHost() *HostInfo {
	name, _ := os.Hostname()
	return &HostInfo{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Hostname:  name,
	}
}

// Report is the machine-readable form of a full evaluation run, written
// by graftbench -json so results can be archived, diffed between
// machines, or plotted without scraping the text tables: the run's
// cells, with the host and configuration that produced them.
type Report struct {
	// GeneratedNote describes scale ("paper" or "quick").
	GeneratedNote string    `json:"note,omitempty"`
	Host          *HostInfo `json:"host,omitempty"`
	Config        *Config   `json:"config,omitempty"`
	Cells         []Cell    `json:"cells"`
	// Telemetry holds per-graft invocation counters accumulated during the
	// run (graftbench -telemetry); empty when telemetry was off.
	Telemetry []telemetry.GraftSnapshot `json:"telemetry,omitempty"`
}

// Encode renders the report as indented JSON via the standard marshaler.
// This wrapper exists to pin the indentation policy in one place.
func (r *Report) Encode() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// DurationsNote documents the unit convention for consumers.
const DurationsNote = "all durations are nanoseconds"
