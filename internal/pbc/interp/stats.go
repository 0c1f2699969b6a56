package interp

import (
	"errors"
	"sort"
	"sync"

	"petabricks/internal/pbc/ir"
)

// Tier compilation statistics are collected process-wide and always on
// (unlike the obs metrics, which only exist once Instrument installs a
// registry). They answer "which rules did not make it into the tier I
// asked for, and why" — the blanket skip the lowerers used to hide
// behind is surfaced here as a typed construct token.

// FallbackReason describes one (transform, rule, tier) lowering failure.
type FallbackReason struct {
	Transform string `json:"transform"`
	Rule      string `json:"rule"`
	Tier      string `json:"tier"`      // tier that rejected the rule: always "jit"
	Construct string `json:"construct"` // stable token, e.g. "view-binding", "transform-call"
	Detail    string `json:"detail,omitempty"`
	Count     int64  `json:"count"` // distinct compilations that hit this reason
}

// EngineStats is the JSON shape served under /v1/stats "engines".
type EngineStats struct {
	Compiled  map[string]int64 `json:"compiled"` // tier -> rules successfully lowered
	Fallbacks []FallbackReason `json:"fallbacks,omitempty"`
}

// maxFallbackEntries bounds the registry; servers compile arbitrary
// user programs and the map must not grow without limit.
const maxFallbackEntries = 256

var tierStats struct {
	mu        sync.Mutex
	compiled  map[string]int64
	fallbacks map[fallbackKey]*FallbackReason
	dropped   bool
}

type fallbackKey struct {
	transform, rule, tier, construct string
}

// recordTierCompile notes one rule successfully lowered into tier.
func recordTierCompile(tier string) {
	s := &tierStats
	s.mu.Lock()
	if s.compiled == nil {
		s.compiled = make(map[string]int64)
	}
	s.compiled[tier]++
	s.mu.Unlock()
}

// recordTierFallback notes that tier rejected (transform, rule). The
// construct token comes from ir.Unsupported when the lowerer
// produced one; any other error is bucketed as "not-compilable".
func recordTierFallback(transform, rule, tier string, err error) {
	construct, detail := "not-compilable", ""
	var uns *ir.Unsupported
	if errors.As(err, &uns) {
		construct = uns.Construct
		detail = uns.Detail
	} else if err != nil {
		detail = err.Error()
	}
	key := fallbackKey{transform, rule, tier, construct}
	s := &tierStats
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.fallbacks[key]; ok {
		r.Count++
		return
	}
	if len(s.fallbacks) >= maxFallbackEntries {
		s.dropped = true
		return
	}
	if s.fallbacks == nil {
		s.fallbacks = make(map[fallbackKey]*FallbackReason)
	}
	s.fallbacks[key] = &FallbackReason{
		Transform: transform,
		Rule:      rule,
		Tier:      tier,
		Construct: construct,
		Detail:    detail,
		Count:     1,
	}
}

// EngineStatsSnapshot returns a copy of the tier statistics, fallbacks
// sorted by descending count then by name for stable output.
func EngineStatsSnapshot() EngineStats {
	s := &tierStats
	s.mu.Lock()
	defer s.mu.Unlock()
	out := EngineStats{Compiled: make(map[string]int64, len(s.compiled))}
	for k, v := range s.compiled {
		out.Compiled[k] = v
	}
	for _, r := range s.fallbacks {
		cp := *r
		out.Fallbacks = append(out.Fallbacks, cp)
	}
	sort.Slice(out.Fallbacks, func(i, j int) bool {
		a, b := out.Fallbacks[i], out.Fallbacks[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.Transform != b.Transform {
			return a.Transform < b.Transform
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Construct < b.Construct
	})
	return out
}
