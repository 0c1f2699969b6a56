// Package lib is the reachability check's fixture: two of its declarations
// are planted dead.
package lib

import "fmt"

type Counter struct{ n int }

func New() *Counter { return &Counter{} }

func (c *Counter) Add() { c.n++ }

// String is reached only through fmt.Stringer.
func (c *Counter) String() string { return fmt.Sprintf("counter %d", c.n) }

// Reset is a planted dead method.
func (c *Counter) Reset() { c.n = 0 }

// Unused is a planted dead function.
func Unused() int { return 42 }

// Probe is called only from the second module.
func Probe() int { return 7 }
