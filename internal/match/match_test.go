package match

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPatternMatches(t *testing.T) {
	cases := []struct {
		p    Pattern
		c    Concrete
		want bool
	}{
		{Pattern{1, 5, 2}, Concrete{1, 5, 2}, true},
		{Pattern{1, 5, 2}, Concrete{1, 5, 3}, false},
		{Pattern{1, 5, 2}, Concrete{1, 6, 2}, false},
		{Pattern{1, 5, 2}, Concrete{2, 5, 2}, false},
		{Pattern{1, AnyTag, 2}, Concrete{1, 99, 2}, true},
		{Pattern{1, 5, AnySource}, Concrete{1, 5, 77}, true},
		{Pattern{1, AnyTag, AnySource}, Concrete{1, 0, 0}, true},
		{Pattern{1, AnyTag, AnySource}, Concrete{2, 0, 0}, false},
	}
	for _, c := range cases {
		if got := c.p.Matches(c.c); got != c.want {
			t.Errorf("%v.Matches(%v) = %v, want %v", c.p, c.c, got, c.want)
		}
	}
}

func TestPatternSetExactMatch(t *testing.T) {
	s := NewPatternSet[string]()
	s.Add(Pattern{1, 5, 2}, "a")
	if v, ok := s.Match(Concrete{1, 5, 2}); !ok || v != "a" {
		t.Fatalf("Match = (%v, %v)", v, ok)
	}
	if _, ok := s.Match(Concrete{1, 5, 2}); ok {
		t.Fatal("matched twice")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestPatternSetWildcardPriorityByPostingOrder(t *testing.T) {
	s := NewPatternSet[string]()
	s.Add(Pattern{1, AnyTag, AnySource}, "wild")
	s.Add(Pattern{1, 5, 2}, "exact")
	// The wildcard was posted first, so it must match first.
	if v, _ := s.Match(Concrete{1, 5, 2}); v != "wild" {
		t.Fatalf("first match = %q, want wild", v)
	}
	if v, _ := s.Match(Concrete{1, 5, 2}); v != "exact" {
		t.Fatalf("second match = %q, want exact", v)
	}
}

func TestPatternSetExactBeforeLaterWildcard(t *testing.T) {
	s := NewPatternSet[string]()
	s.Add(Pattern{1, 5, 2}, "exact")
	s.Add(Pattern{1, AnyTag, AnySource}, "wild")
	if v, _ := s.Match(Concrete{1, 5, 2}); v != "exact" {
		t.Fatalf("first match = %q, want exact", v)
	}
}

func TestPatternSetNoMatchAcrossContexts(t *testing.T) {
	s := NewPatternSet[string]()
	s.Add(Pattern{7, AnyTag, AnySource}, "ctx7")
	if _, ok := s.Match(Concrete{8, 1, 1}); ok {
		t.Fatal("matched across contexts")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestItemSetFIFOWithinKey(t *testing.T) {
	s := NewItemSet[int]()
	s.Add(Concrete{1, 5, 2}, 100)
	s.Add(Concrete{1, 5, 2}, 200)
	if v, _ := s.Match(Pattern{1, 5, 2}); v != 100 {
		t.Fatalf("first = %d, want 100", v)
	}
	if v, _ := s.Match(Pattern{1, 5, 2}); v != 200 {
		t.Fatalf("second = %d, want 200", v)
	}
}

func TestItemSetWildcardProbes(t *testing.T) {
	s := NewItemSet[string]()
	s.Add(Concrete{1, 5, 2}, "m1")
	s.Add(Concrete{1, 6, 3}, "m2")

	if v, ok := s.Match(Pattern{1, AnyTag, AnySource}); !ok || v != "m1" {
		t.Fatalf("wildcard probe = (%v,%v), want m1 (earliest arrival)", v, ok)
	}
	// m1 was consumed; it must not be returned by any other key.
	if v, ok := s.Match(Pattern{1, 5, 2}); ok {
		t.Fatalf("consumed item matched again: %v", v)
	}
	if v, ok := s.Match(Pattern{1, AnyTag, 3}); !ok || v != "m2" {
		t.Fatalf("src-specific wildcard probe = (%v,%v), want m2", v, ok)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestItemSetPeekDoesNotConsume(t *testing.T) {
	s := NewItemSet[string]()
	s.Add(Concrete{1, 5, 2}, "m")
	if v, ok := s.Peek(Pattern{1, AnyTag, 2}); !ok || v != "m" {
		t.Fatalf("Peek = (%v,%v)", v, ok)
	}
	if v, ok := s.Match(Pattern{1, 5, AnySource}); !ok || v != "m" {
		t.Fatalf("Match after Peek = (%v,%v)", v, ok)
	}
	if _, ok := s.Peek(Pattern{1, AnyTag, AnySource}); ok {
		t.Fatal("Peek found consumed item")
	}
}

// TestCrossSetsEquivalence checks PatternSet and ItemSet agree with a
// brute-force ordered-scan model under random workloads.
func TestCrossSetsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type post struct {
		p     Pattern
		id    int
		taken bool
	}
	for trial := 0; trial < 200; trial++ {
		s := NewPatternSet[int]()
		var model []*post
		id := 0
		for op := 0; op < 60; op++ {
			if rng.Intn(2) == 0 {
				p := Pattern{
					Ctx: int32(rng.Intn(2)),
					Tag: int32(rng.Intn(3)),
					Src: uint64(rng.Intn(2)),
				}
				if rng.Intn(3) == 0 {
					p.Tag = AnyTag
				}
				if rng.Intn(3) == 0 {
					p.Src = AnySource
				}
				s.Add(p, id)
				model = append(model, &post{p: p, id: id})
				id++
			} else {
				c := Concrete{
					Ctx: int32(rng.Intn(2)),
					Tag: int32(rng.Intn(3)),
					Src: uint64(rng.Intn(2)),
				}
				got, gotOK := s.Match(c)
				var want int
				wantOK := false
				for _, m := range model {
					if !m.taken && m.p.Matches(c) {
						want, wantOK = m.id, true
						m.taken = true
						break
					}
				}
				if gotOK != wantOK || (gotOK && got != want) {
					t.Fatalf("trial %d: Match(%v) = (%d,%v), model says (%d,%v)",
						trial, c, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

func TestItemSetEquivalenceWithScanModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type item struct {
		c     Concrete
		id    int
		taken bool
	}
	for trial := 0; trial < 200; trial++ {
		s := NewItemSet[int]()
		var model []*item
		id := 0
		for op := 0; op < 60; op++ {
			if rng.Intn(2) == 0 {
				c := Concrete{
					Ctx: int32(rng.Intn(2)),
					Tag: int32(rng.Intn(3)),
					Src: uint64(rng.Intn(2)),
				}
				s.Add(c, id)
				model = append(model, &item{c: c, id: id})
				id++
			} else {
				p := Pattern{
					Ctx: int32(rng.Intn(2)),
					Tag: int32(rng.Intn(3)),
					Src: uint64(rng.Intn(2)),
				}
				if rng.Intn(3) == 0 {
					p.Tag = AnyTag
				}
				if rng.Intn(3) == 0 {
					p.Src = AnySource
				}
				got, gotOK := s.Match(p)
				var want int
				wantOK := false
				for _, m := range model {
					if !m.taken && p.Matches(m.c) {
						want, wantOK = m.id, true
						m.taken = true
						break
					}
				}
				if gotOK != wantOK || (gotOK && got != want) {
					t.Fatalf("trial %d: Match(%v) = (%d,%v), model says (%d,%v)",
						trial, p, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

func TestQuickPatternSymmetry(t *testing.T) {
	// If a PatternSet match succeeds for envelope c against pattern p,
	// then p.Matches(c) must hold.
	f := func(ctx int8, tag int8, src uint8, wildTag, wildSrc bool) bool {
		p := Pattern{Ctx: int32(ctx), Tag: int32(tag) & 0x7f, Src: uint64(src)}
		if wildTag {
			p.Tag = AnyTag
		}
		if wildSrc {
			p.Src = AnySource
		}
		s := NewPatternSet[struct{}]()
		s.Add(p, struct{}{})
		c := Concrete{Ctx: int32(ctx), Tag: int32(tag) & 0x7f, Src: uint64(src)}
		_, ok := s.Match(c)
		return ok == p.Matches(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkPatternSetPostMatch(b *testing.B) {
	s := NewPatternSet[int]()
	for i := 0; i < b.N; i++ {
		s.Add(Pattern{1, int32(i % 8), AnySource}, i)
		if _, ok := s.Match(Concrete{1, int32(i % 8), 3}); !ok {
			b.Fatal("no match")
		}
	}
}

func BenchmarkItemSet650PendingWildcards(b *testing.B) {
	// The workload behind the paper's 650-simultaneous-receives claim.
	for i := 0; i < b.N; i++ {
		s := NewPatternSet[int]()
		for j := 0; j < 650; j++ {
			s.Add(Pattern{1, int32(j), AnySource}, j)
		}
		for j := 0; j < 650; j++ {
			if _, ok := s.Match(Concrete{1, int32(j), 0}); !ok {
				b.Fatal("no match")
			}
		}
	}
}

// TestItemSetWildcardTakesDoNotAccumulate checks that items taken
// through a wildcard bucket do not stay behind in their exact-key
// FIFO, which no probe visits: after many exact-key arrivals, each
// received with AnySource, the index holds O(live + constant) slots,
// and the items still waiting keep their arrival order.
func TestItemSetWildcardTakesDoNotAccumulate(t *testing.T) {
	const held, n = 64, 100_000
	s := NewItemSet[int]()
	for i := 0; i < held; i++ {
		s.Add(Concrete{Ctx: 1, Tag: 9, Src: uint64(i % 3)}, -1-i)
	}
	for i := 0; i < n; i++ {
		s.Add(Concrete{Ctx: 1, Tag: 7, Src: uint64(i % 3)}, i)
		if v, ok := s.Match(Pattern{Ctx: 1, Tag: 7, Src: AnySource}); !ok || v != i {
			t.Fatalf("AnySource match %d = (%d, %v)", i, v, ok)
		}
	}
	slots := 0
	for _, q := range s.buckets {
		slots += len(q.items)
	}
	if limit := 16*held + 2048; slots > limit {
		t.Fatalf("%d index slots for %d live items after %d wildcard takes, want <= %d", slots, s.Len(), n, limit)
	}
	for i := 0; i < held; i++ {
		if v, ok := s.Match(Pattern{Ctx: 1, Tag: 9, Src: AnySource}); !ok || v != -1-i {
			t.Fatalf("held item %d = (%d, %v), want (%d, true)", i, v, ok, -1-i)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after draining", s.Len())
	}
}
