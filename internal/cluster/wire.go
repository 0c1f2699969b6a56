package cluster

import (
	"fmt"
	"strings"
	"time"

	"petabricks/internal/choice"
	"petabricks/internal/configstore"
)

// Wire formats shared by the server's /v1/configs handler and the
// replication client live here so both sides parse one schema: the
// server renders a ConfigsResponse, the replicator consumes it.

// ConfigWire is one tuned configuration on the wire. Config holds the
// textual choice.Config payload line by line (the pbtune file format),
// so entries stay human-readable in API responses and round-trip
// through choice.Read for replication.
type ConfigWire struct {
	Key     string    `json:"key"`
	Program string    `json:"program"`
	Bucket  int       `json:"bucket"`
	Workers int       `json:"workers"`
	Cost    float64   `json:"cost"`
	TunedAt time.Time `json:"tuned_at"`
	Hits    int64     `json:"hits"`
	Config  []string  `json:"config"`
}

// LookupWire reports one debug lookup performed by GET
// /v1/configs?program=&n=: which entry a run of that shape would be
// served, and how far the nearest-bucket match stretched.
type LookupWire struct {
	Program       string `json:"program"`
	N             int64  `json:"n"`
	Workers       int    `json:"workers"`
	WantBucket    int    `json:"want_bucket"`
	Found         bool   `json:"found"`
	MatchedKey    string `json:"matched_key,omitempty"`
	MatchedBucket int    `json:"matched_bucket,omitempty"`
	Exact         bool   `json:"exact"`
}

// ConfigsResponse is the GET /v1/configs payload.
type ConfigsResponse struct {
	// Digest fingerprints the store's logical content; replication
	// peers skip the entry list when it matches their last pull.
	Digest  string       `json:"digest"`
	Entries []ConfigWire `json:"entries"`
	Lookup  *LookupWire  `json:"lookup,omitempty"`
}

// DigestString renders a store digest the way /v1/configs reports it.
func DigestString(d uint64) string { return fmt.Sprintf("%016x", d) }

// EncodeConfigs renders store entries as wire entries.
func EncodeConfigs(entries []configstore.Entry) []ConfigWire {
	out := make([]ConfigWire, 0, len(entries))
	for _, e := range entries {
		out = append(out, ConfigWire{
			Key:     e.Key.String(),
			Program: e.Key.Program,
			Bucket:  e.Key.Bucket,
			Workers: e.Key.Workers,
			Cost:    e.Cost,
			TunedAt: e.TunedAt,
			Hits:    e.Hits,
			Config:  RenderConfigLines(e.Cfg),
		})
	}
	return out
}

// RenderConfigLines flattens a configuration into the pbtune file
// format, line by line, parseable back via ParseConfigLines. It defers
// to choice.Config.Write so the wire payload can never drift from what
// choice.Read accepts.
func RenderConfigLines(cfg *choice.Config) []string {
	var buf strings.Builder
	if err := cfg.Write(&buf); err != nil {
		return nil
	}
	var lines []string
	for _, l := range strings.Split(buf.String(), "\n") {
		if l = strings.TrimSpace(l); l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	return lines
}

// ParseConfigLines reassembles a configuration from its wire lines.
func ParseConfigLines(lines []string) (*choice.Config, error) {
	return choice.Read(strings.NewReader(strings.Join(lines, "\n") + "\n"))
}
