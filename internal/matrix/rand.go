package matrix

import (
	"math/rand"
	"sync"
)

// Seeded input generators. Every benchmark instance and every training
// input is drawn from the stream of rand.NewSource(seed), and a served
// request draws one instance, so a fresh source per call (5 KiB of
// state) would be most of what generating a small input allocates.
// Rand hands out a pooled generator re-seeded in place instead:
// (*rand.Rand).Seed restarts the identical stream.

var rands = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// Rand returns a generator that draws exactly the stream of
// rand.New(rand.NewSource(seed)). The caller owns it until it hands it
// back with PutRand, and must not share it with another goroutine.
func Rand(seed int64) *rand.Rand {
	r := rands.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// PutRand returns a generator obtained from Rand to the pool; neither
// it nor anything still drawing from it may be used afterwards.
func PutRand(r *rand.Rand) { rands.Put(r) }
