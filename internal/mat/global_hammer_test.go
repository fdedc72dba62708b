package mat

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fastpathnfv/speedybox/internal/flow"
)

// TestGlobalSnapshotRaceHammer drives lock-free snapshot readers
// against every mutating path at once — Install, Remove, MarkStale,
// AdvanceEpoch and SweepEpoch — and checks the read-side invariants a
// published snapshot must uphold: a hit returns a rule for the probed
// FID, LookupLive never serves a rule already retired when the reader
// read the generation, and ForEach observes a consistent table. Run it
// under -race to exercise the publication protocol (writers publish
// the copied table before bumping the generation).
func TestGlobalSnapshotRaceHammer(t *testing.T) {
	g := NewGlobal()
	const fids = 256 // spread across all 32 shards
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Writers: per-goroutine disjoint FID ranges for Install/Remove so
	// rule pointers have a single writer, plus one stale-marker and one
	// epoch driver over the whole range.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			lo, hi := w*fids/4, (w+1)*fids/4
			for !stop.Load() {
				fid := flow.FID(lo + rng.Intn(hi-lo))
				switch rng.Intn(3) {
				case 0, 1:
					g.Install(&GlobalRule{FID: fid, Epoch: g.Epoch()})
				case 2:
					g.Remove(fid)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for !stop.Load() {
			g.MarkStale(flow.FID(rng.Intn(fids)))
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			cur := g.AdvanceEpoch()
			g.SweepEpoch(cur)
		}
	}()

	// Readers: every lock-free read path, with invariant checks. The
	// failure flag is sticky; t.Errorf is not called from the racing
	// goroutines to keep the hot loops allocation-free.
	var (
		badFID   atomic.Uint64
		badLive  atomic.Uint64
		badEach  atomic.Uint64
		lookups  atomic.Uint64
		genMoves atomic.Uint64
	)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			lastGen := g.Gen()
			for !stop.Load() {
				fid := flow.FID(rng.Intn(fids))
				if rule, ok := g.Lookup(fid); ok {
					lookups.Add(1)
					if rule.FID != fid {
						badFID.Add(1)
					}
				}
				// The Gen contract: writers store their state before
				// bumping the generation, so every retirement (stale
				// mark, epoch advance) whose bump precedes this Gen()
				// read is visible in the state read after it, and
				// LookupLive must never serve a rule retired there. The
				// reverse is allowed — a reader may see a retirement
				// whose bump has not landed yet — so nothing is
				// asserted about the generation after the lookup. A
				// stale-marked rule pointer never turns live again
				// (reinstalls store a fresh pointer), and epochs only
				// grow.
				gen := g.Gen()
				epoch := g.Epoch()
				var staleRule *GlobalRule
				if sl := g.shardFor(fid).table.Load().get(fid); sl != nil && sl.stale {
					staleRule = sl.rule
				}
				if rule, ok := g.LookupLive(fid); ok && (rule == staleRule || rule.Epoch < epoch) {
					badLive.Add(1)
				}
				if gen != lastGen {
					genMoves.Add(1)
					lastGen = gen
				}
				g.IsStale(fid)
				if rng.Intn(64) == 0 {
					n := 0
					g.ForEach(func(rule *GlobalRule) {
						if rule == nil {
							badEach.Add(1)
						}
						n++
					})
					if n < 0 || n > fids {
						badEach.Add(1)
					}
					_ = g.Len()
					_ = g.StaleLen()
				}
			}
		}(r)
	}

	// Drive for a wall-clock window (not an iteration count): the point
	// is scheduler interleaving, and a fast machine would finish a
	// counted loop before the reader goroutines ever run. On a loaded
	// machine the window stretches, up to a bound, until the readers
	// have seen a hit and a generation move.
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		exercised := lookups.Load() > 0 && genMoves.Load() > 0
		if el > 150*time.Millisecond && (exercised || el > 5*time.Second) {
			break
		}
		g.Lookup(flow.FID(i % fids))
	}
	stop.Store(true)
	wg.Wait()

	if n := badFID.Load(); n != 0 {
		t.Errorf("%d lookups returned a rule for the wrong FID", n)
	}
	if n := badLive.Load(); n != 0 {
		t.Errorf("%d LookupLive hits served a rule retired before the generation read", n)
	}
	if n := badEach.Load(); n != 0 {
		t.Errorf("%d ForEach/Len inconsistencies", n)
	}
	if lookups.Load() == 0 || genMoves.Load() == 0 {
		t.Errorf("hammer did not exercise the table: %d hits, %d gen moves",
			lookups.Load(), genMoves.Load())
	}
}

// TestGlobalModelProperty drives a seeded random operation sequence
// against both the Global table and a plain map model, comparing every
// observable after every step: presence, staleness, liveness, sizes,
// and generation monotonicity (including the bump-on-no-op contract
// Remove and MarkStale keep for worker cache invalidation).
func TestGlobalModelProperty(t *testing.T) {
	type modelRule struct {
		stale   bool
		epoch   uint64
		version uint64
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := NewGlobal()
		model := make(map[flow.FID]*modelRule)
		epoch := uint64(0)
		lastGen := g.Gen()
		const fids = 96
		for step := 0; step < 4000; step++ {
			fid := flow.FID(rng.Intn(fids))
			mutated := true
			switch op := rng.Intn(10); {
			case op < 4: // install
				g.Install(&GlobalRule{FID: fid, Epoch: epoch})
				m := &modelRule{epoch: epoch}
				if old, ok := model[fid]; ok {
					m.version = old.version + 1
				}
				model[fid] = m
			case op < 6: // remove (maybe a no-op)
				got := g.Remove(fid)
				_, want := model[fid]
				if got != want {
					t.Fatalf("seed %d step %d: Remove(%v) = %v, model %v", seed, step, fid, got, want)
				}
				delete(model, fid)
			case op < 8: // stale-mark (maybe a no-op)
				got := g.MarkStale(fid)
				// MarkStale reports presence, not "newly marked": an
				// already-stale rule still returns true.
				m, want := model[fid]
				if got != want {
					t.Fatalf("seed %d step %d: MarkStale(%v) = %v, model %v", seed, step, fid, got, want)
				}
				if want {
					m.stale = true
				}
			case op < 9: // epoch advance
				epoch = g.AdvanceEpoch()
			default: // epoch sweep
				want := 0
				for _, m := range model {
					if !m.stale && m.epoch != epoch {
						m.stale = true
						want++
					}
				}
				if got := g.SweepEpoch(epoch); got != want {
					t.Fatalf("seed %d step %d: SweepEpoch = %d, model %d", seed, step, got, want)
				}
				// A sweep that marks nothing publishes nothing — caches
				// stay valid, so no generation bump is required.
				mutated = want > 0
			}

			// The generation must move on every mutation — including
			// no-op Remove and MarkStale, which the contract bumps so
			// batch-worker rule caches revalidate — and never regress.
			gen := g.Gen()
			if mutated && gen <= lastGen {
				t.Fatalf("seed %d step %d: generation did not advance (%d -> %d)", seed, step, lastGen, gen)
			}
			if gen < lastGen {
				t.Fatalf("seed %d step %d: generation regressed (%d -> %d)", seed, step, lastGen, gen)
			}
			lastGen = gen

			// Compare full observable state on the touched FID plus a
			// random probe, and the aggregate sizes.
			for _, probe := range []flow.FID{fid, flow.FID(rng.Intn(fids))} {
				m, want := model[probe]
				rule, got := g.Lookup(probe)
				if got != want {
					t.Fatalf("seed %d step %d: Lookup(%v) = %v, model %v", seed, step, probe, got, want)
				}
				if got && (rule.FID != probe || rule.Version != m.version) {
					t.Fatalf("seed %d step %d: Lookup(%v) rule fid=%v version=%d, model version=%d",
						seed, step, probe, rule.FID, rule.Version, m.version)
				}
				if gotStale := g.IsStale(probe); gotStale != (want && m.stale) {
					t.Fatalf("seed %d step %d: IsStale(%v) = %v", seed, step, probe, gotStale)
				}
				wantLive := want && !m.stale && m.epoch == epoch
				if _, gotLive := g.LookupLive(probe); gotLive != wantLive {
					t.Fatalf("seed %d step %d: LookupLive(%v) = %v, model %v", seed, step, probe, gotLive, wantLive)
				}
			}
			if g.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len = %d, model %d", seed, step, g.Len(), len(model))
			}
			staleWant := 0
			for _, m := range model {
				if m.stale {
					staleWant++
				}
			}
			if g.StaleLen() != staleWant {
				t.Fatalf("seed %d step %d: StaleLen = %d, model %d", seed, step, g.StaleLen(), staleWant)
			}
		}
	}
}
