package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"sosr/internal/store"
)

// walConfig tunes the durable store's write-ahead log.
type walConfig struct {
	// CompactBytes is the WAL size past which a dataset is folded into a
	// fresh snapshot (0 = the store default).
	CompactBytes int64 `json:"compact_bytes,omitempty"`
	// NoSync drops the fsync after every append and snapshot. Faster, and an
	// OS crash may then lose acknowledged updates — fine for replicas whose
	// truth lives elsewhere, wrong for a primary.
	NoSync bool `json:"no_sync,omitempty"`
}

// opsConfig tunes the privileged half of the ops listener.
type opsConfig struct {
	// AdminToken, when set, gates every /admin/* and /debug/* route behind
	// `Authorization: Bearer <token>`; /metrics, /healthz, /readyz, and
	// /datasets stay open for scrapers and probes.
	AdminToken string `json:"admin_token,omitempty"`
}

// traceConfig tunes distributed session tracing.
type traceConfig struct {
	// Sample is the probability (0..1) that a server-rooted session starts a
	// trace. Traces a client opened (trace context in the hello) are always
	// recorded regardless of this rate.
	Sample float64 `json:"sample,omitempty"`
	// Slow is a duration ("250ms"); traces slower than it are captured in
	// the flagged ring even when the recent ring has moved on.
	Slow string `json:"slow,omitempty"`
	// Ring bounds the retained traces per ring, recent and flagged
	// separately (0 = 256).
	Ring int `json:"ring,omitempty"`
}

// serverConfig is the sosrd serve -config file: the same knobs as the
// flags, and the one place to keep the admin token out of argv. Explicit
// flags override file values; datasets come from -data.
//
//	{
//	  "addr": ":7075",
//	  "ops_addr": "127.0.0.1:7076",
//	  "data_dir": "/var/lib/sosrd",
//	  "log_level": "info",
//	  "max_sessions": 256,
//	  "wal": {"compact_bytes": 4194304},
//	  "ops": {"admin_token": "s3cret"},
//	  "trace": {"sample": 0.1, "slow": "250ms", "ring": 512}
//	}
type serverConfig struct {
	Addr        string      `json:"addr,omitempty"`
	OpsAddr     string      `json:"ops_addr,omitempty"`
	DataDir     string      `json:"data_dir,omitempty"`
	LogLevel    string      `json:"log_level,omitempty"`
	MaxSessions int         `json:"max_sessions,omitempty"`
	WAL         walConfig   `json:"wal,omitempty"`
	Ops         opsConfig   `json:"ops,omitempty"`
	Trace       traceConfig `json:"trace,omitempty"`
}

// loadServerConfig reads and decodes a config file; unknown fields are
// rejected so a typoed knob fails loudly instead of silently defaulting.
func loadServerConfig(path string) (*serverConfig, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg serverConfig
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &cfg, nil
}

// storeOptions renders the WAL knobs as store options.
func (c *serverConfig) storeOptions() store.Options {
	return store.Options{CompactBytes: c.WAL.CompactBytes, NoSync: c.WAL.NoSync, Logger: logger}
}

// pick returns flagVal when non-zero, else fileVal: the flag-over-config
// precedence for string knobs.
func pick(flagVal, fileVal string) string {
	if flagVal != "" {
		return flagVal
	}
	return fileVal
}
