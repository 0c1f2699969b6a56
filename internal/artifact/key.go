// Package artifact is the tiered store for compiled execution
// artifacts: the holders the rule compiler produces per (transform,
// sizes, config, engine) invocation key. Two tiers sit behind one
// Store:
//
//   - in-memory: one bounded MemCache holding a live entry per
//     invocation key — the interpreter's compiled rules and execution
//     plan side by side — shared across Engine.WithConfig views;
//   - disk: serializable artifacts (flat-bytecode jit programs, plan
//     descriptors) persist beside the configstore in checksummed,
//     schema-versioned packs, one per top-level run, each written with
//     the atomic temp-file + rename idiom (pack.go). pbserve opens no
//     disk tier; the repository benchmark's boot_cold workload and
//     pbfuzz's cold/warm axis do.
//
// This file defines the canonical invocation Key. Both tiers derive
// their keys from this one builder, and the unit tests prove each
// component (engine, config, sizes, program) perturbs it.
package artifact

import (
	"sort"
	"strconv"
	"strings"

	"petabricks/internal/choice"
)

// SchemaVersion is the on-disk artifact schema. Bump it whenever the
// serialized payload shape changes (e.g. the jit instruction set);
// artifacts written under any other version are rejected at load and
// recompiled rather than decoded.
// Version 3: the jit instruction set gained view refs and reduction
// ops (sumv/dotv/loadat/storeat), changing the Ref payload shape.
// Version 4: execution-plan descriptors joined the disk tier, and file
// IDs became kind-qualified (a plan and a jit artifact for the same
// invocation key previously hashed to the same file name).
// Version 5: one pack file per top-level run, an index of (kind, key,
// offset, len, sum) entries ahead of the payloads, replaced one file
// per artifact.
// Version 6: the jit instruction set gained loop and compare-and-branch
// ops (OpGuard went), and a jit payload became the binary program
// codec of jit.EncodePrograms instead of a gob stream.
// Version 7: a jit program gained a call-site table and OpCall, so the
// macro rules that call transforms persist as bytecode too.
// Version 8: the jit instruction set gained the rotated loop's back
// edge, OpLoopLT.
// Version 9: the jit instruction set gained OpSel, the conditional move
// of if-converted cell rules.
const SchemaVersion = 9

// Disk-tier artifact kinds. JIT artifacts are plain-data bytecode
// programs; Plan artifacts are pure-data PlanDescriptors that the
// interpreter rehydrates (rebinds to live analysis state) at load time.
const (
	KindPlan = "plan"
	KindJIT  = "jit"
)

// Key identifies one compiled artifact: which program text, which
// transform, at which concrete sizes, under which configuration, for
// which execution tier. Two invocations share an artifact iff their
// Keys are equal; the schema version joins the key on disk (see
// entryID) so incompatible payloads can never be loaded by accident.
type Key struct {
	// Prog fingerprints the whole source program so two engines serving
	// same-named transforms from different files never collide in a
	// shared store.
	Prog uint64
	// Transform is the transform (or template-instance) name.
	Transform string
	// Sizes is the canonical size-vector encoding from SizesKeySorted.
	Sizes string
	// ConfigFP is the configuration fingerprint from ConfigFingerprint.
	ConfigFP uint64
	// Engine is the resolved execution tier (interp.EngineInterp or
	// EngineJIT). The config fingerprint already covers
	// an explicitly set pbc.engine tunable; keeping the resolved tier
	// explicit also separates configs that rely on the default.
	Engine int
}

// String renders the canonical cache-key form, e.g.
// "p=1a2b|RollingSum|n=64|cfg=9f3c|eng=2".
func (k Key) String() string {
	var b strings.Builder
	b.Grow(len(k.Transform) + len(k.Sizes) + 48)
	b.WriteString("p=")
	b.WriteString(strconv.FormatUint(k.Prog, 16))
	b.WriteByte('|')
	b.WriteString(k.Transform)
	if k.Sizes != "" {
		b.WriteByte('|')
		b.WriteString(k.Sizes)
	}
	b.WriteString("|cfg=")
	b.WriteString(strconv.FormatUint(k.ConfigFP, 16))
	b.WriteString("|eng=")
	b.WriteString(strconv.Itoa(k.Engine))
	return b.String()
}

// entryID is the disk tier's index key for one artifact kind and one
// key rendered by Key.String, at the current schema version:
// "v<schema>-<fnv64 of kind|key>". The kind joins the hash so a plan
// and a jit artifact for the same invocation never collide.
func entryID(kind, key string) string {
	return "v" + strconv.Itoa(SchemaVersion) + "-" + strconv.FormatUint(HashString(kind+"|"+key), 16)
}

// SizesKeySorted encodes a bound size vector canonically, e.g.
// "m=3|n=64", from its variable names in sorted order and their values
// alongside; it neither sorts nor allocates beyond the result.
func SizesKeySorted(names []string, vals []int64) string {
	var buf [64]byte
	b := buf[:0]
	for i, k := range names {
		if i > 0 {
			b = append(b, '|')
		}
		b = append(b, k...)
		b = append(b, '=')
		b = strconv.AppendInt(b, vals[i], 10)
	}
	return string(b)
}

// fnvMix streams bytes through an inline FNV-1a state; hashing a config
// this way (instead of serializing its text form into a hasher) keeps
// the per-invocation cache-key cost allocation-free.
type fnvMix uint64

const fnvOffset64 fnvMix = 14695981039346656037

func (h fnvMix) str(s string) fnvMix {
	for i := 0; i < len(s); i++ {
		h = (h ^ fnvMix(s[i])) * 1099511628211
	}
	return h
}

func (h fnvMix) num(v int64) fnvMix {
	for i := 0; i < 64; i += 8 {
		h = (h ^ fnvMix(byte(v>>i))) * 1099511628211
	}
	return h
}

// HashString is the package's FNV-1a 64-bit string hash, exposed so key
// derivation (program fingerprints, file IDs, digests) all use one
// function.
func HashString(s string) uint64 { return uint64(fnvOffset64.str(s)) }

// HashBytes hashes a byte slice with the same FNV-1a parameters; it is
// the payload checksum of the disk tier.
func HashBytes(b []byte) uint64 {
	h := fnvOffset64
	for _, c := range b {
		h = (h ^ fnvMix(c)) * 1099511628211
	}
	return uint64(h)
}

// ConfigFingerprint hashes the configuration's contents (int tunables,
// selectors, per-level parameters, in sorted key order); it keys every
// artifact cache so engine views running under different configurations
// never share an entry.
func ConfigFingerprint(cfg *choice.Config) uint64 {
	h := fnvMix(fnvOffset64)
	if cfg == nil {
		return uint64(h)
	}
	h = h.num(int64(len(cfg.Ints)))
	for _, k := range sortedKeys(cfg.Ints) {
		h = h.str(k).num(cfg.Ints[k])
	}
	sels := make([]string, 0, len(cfg.Sels))
	for k := range cfg.Sels {
		sels = append(sels, k)
	}
	sort.Strings(sels)
	for _, k := range sels {
		h = h.str(k)
		for _, l := range cfg.Sels[k].Levels {
			h = h.num(l.Cutoff).num(int64(l.Choice)).num(int64(len(l.Params)))
			for _, pk := range sortedKeys(l.Params) {
				h = h.str(pk).num(l.Params[pk])
			}
		}
	}
	return uint64(h)
}

func sortedKeys(m map[string]int64) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
