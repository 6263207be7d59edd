package ordset

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

type key int

func (k key) Compare(o key) int { return cmp.Compare(k, o) }

// seekAll flattens what Seek(after) returns.
func seekAll(s *Set[key], after key) []key {
	cur, rest := s.Seek(after)
	out := slices.Clone(cur)
	for _, blk := range rest {
		out = append(out, blk...)
	}
	return out
}

// TestSetMatchesModel drives a set well past several block splits and
// merges with random inserts and removes, checking every Seek against a
// sorted model.
func TestSetMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Set[key]
	model := map[key]bool{}
	check := func() {
		t.Helper()
		want := make([]key, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		slices.Sort(want)
		if s.Len() != len(want) {
			t.Fatalf("Len=%d, model %d", s.Len(), len(want))
		}
		for _, after := range []key{-1, 0, 17, 999, 2500, 5000} {
			i, found := slices.BinarySearch(want, after)
			if found {
				i++
			}
			if got := seekAll(&s, after); !slices.Equal(got, want[i:]) {
				t.Fatalf("Seek(%d): %d keys, want %d", after, len(got), len(want)-i)
			}
		}
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 3000; i++ {
			k := key(rng.Intn(5000))
			if round%2 == 0 || rng.Intn(3) == 0 {
				s.Insert(k)
				model[k] = true
			} else {
				s.Remove(k)
				delete(model, k)
			}
		}
		check()
	}
	for k := range model {
		s.Remove(k)
		delete(model, k)
	}
	check()
	if cur, rest := s.Seek(-1); cur != nil || rest != nil {
		t.Fatal("a drained set still holds blocks")
	}
}
