package choice

import "fmt"

// TunableSpec declares one autotunable integer parameter, the construct
// behind the language's `tunable` keyword and the compiler-introduced
// cutoffs (blocking sizes, sequential cutoffs, iteration counts).
type TunableSpec struct {
	Name    string
	Min     int64
	Max     int64
	Default int64
	// LogScale hints the tuner to search multiplicatively (cutoffs and
	// block sizes behave log-linearly).
	LogScale bool
}

// Clamp forces v into the tunable's range.
func (t TunableSpec) Clamp(v int64) int64 {
	if v < t.Min {
		return t.Min
	}
	if v > t.Max {
		return t.Max
	}
	return v
}

// SelectorSpec declares the search space of one transform's selector.
type SelectorSpec struct {
	// Transform is the selector's name in the Config.
	Transform string
	// ChoiceNames are the menu entries, indexed by choice number; they
	// are the abbreviations used in rendered configurations (e.g. "IS").
	ChoiceNames []string
	// Recursive flags which choices recursively re-enter the transform;
	// only those can usefully appear in upper selector levels.
	Recursive []bool
	// MaxLevels bounds how many levels the tuner may build.
	MaxLevels int
	// LevelParams declares per-level parameters the tuner should sweep
	// (e.g. a merge fan-out), with their ranges.
	LevelParams []TunableSpec
}

// NumChoices returns the size of the choice menu.
func (s SelectorSpec) NumChoices() int { return len(s.ChoiceNames) }

// RecursiveChoices returns the indices of recursive choices.
func (s SelectorSpec) RecursiveChoices() []int {
	var out []int
	for i := range s.ChoiceNames {
		if i < len(s.Recursive) && s.Recursive[i] {
			out = append(out, i)
		}
	}
	return out
}

// Space is the flat configuration space of a program: every tunable and
// every selector the autotuner may adjust (§3.3: "All choices are
// represented in a flat configuration space").
type Space struct {
	Tunables  []TunableSpec
	Selectors []SelectorSpec
}

// AddTunable appends a tunable declaration.
func (sp *Space) AddTunable(t TunableSpec) { sp.Tunables = append(sp.Tunables, t) }

// AddSelector appends a selector declaration.
func (sp *Space) AddSelector(s SelectorSpec) { sp.Selectors = append(sp.Selectors, s) }

// DefaultConfig builds the configuration with every tunable at its
// default and every selector running choice 0 everywhere.
func (sp *Space) DefaultConfig() *Config {
	c := NewConfig()
	for _, t := range sp.Tunables {
		c.SetInt(t.Name, t.Default)
	}
	for _, s := range sp.Selectors {
		c.SetSelector(s.Transform, NewSelector(0))
	}
	return c
}

// Validate checks internal consistency of the space declaration.
func (sp *Space) Validate() error {
	seen := map[string]bool{}
	for _, t := range sp.Tunables {
		if t.Name == "" {
			return fmt.Errorf("choice: tunable with empty name")
		}
		if seen[t.Name] {
			return fmt.Errorf("choice: duplicate tunable %q", t.Name)
		}
		seen[t.Name] = true
		if t.Min > t.Max {
			return fmt.Errorf("choice: tunable %q has min %d > max %d", t.Name, t.Min, t.Max)
		}
		if t.Default < t.Min || t.Default > t.Max {
			return fmt.Errorf("choice: tunable %q default %d outside [%d,%d]", t.Name, t.Default, t.Min, t.Max)
		}
	}
	selSeen := map[string]bool{}
	for _, s := range sp.Selectors {
		if s.Transform == "" {
			return fmt.Errorf("choice: selector with empty transform name")
		}
		if selSeen[s.Transform] {
			return fmt.Errorf("choice: duplicate selector %q", s.Transform)
		}
		selSeen[s.Transform] = true
		if len(s.ChoiceNames) == 0 {
			return fmt.Errorf("choice: selector %q has no choices", s.Transform)
		}
		if len(s.Recursive) != 0 && len(s.Recursive) != len(s.ChoiceNames) {
			return fmt.Errorf("choice: selector %q Recursive length mismatch", s.Transform)
		}
		if s.MaxLevels < 1 {
			return fmt.Errorf("choice: selector %q MaxLevels must be >= 1", s.Transform)
		}
	}
	return nil
}
