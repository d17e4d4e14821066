package shard

import (
	"fmt"
	"sync"
	"testing"
)

// fnv1a is the 64-bit FNV-1a hash: string keys for the tests.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func TestBasicOperations(t *testing.T) {
	m := New[string, int](fnv1a)
	if _, ok := m.Load("a"); ok {
		t.Fatal("empty map reports a key")
	}
	m.Store("a", 1)
	m.Store("b", 2)
	if v, ok := m.Load("a"); !ok || v != 1 {
		t.Fatalf("Load(a) = %d,%v", v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	m.Delete("a")
	if _, ok := m.Load("a"); ok {
		t.Fatal("deleted key still present")
	}
	if v, ok := m.LoadAndDelete("b"); !ok || v != 2 {
		t.Fatalf("LoadAndDelete(b) = %d,%v", v, ok)
	}
	if _, ok := m.LoadAndDelete("b"); ok {
		t.Fatal("second LoadAndDelete reported the key")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d, want 0", m.Len())
	}
}

func TestUpdateMutatesInPlace(t *testing.T) {
	m := New[string, *[]int](fnv1a)
	v := &[]int{}
	m.Store("k", v)
	for i := 0; i < 10; i++ {
		m.Update("k", func(v *[]int, ok bool) {
			if !ok {
				t.Fatal("key missing in Update")
			}
			*v = append(*v, i)
		})
	}
	got, _ := m.Load("k")
	if len(*got) != 10 {
		t.Fatalf("len = %d, want 10", len(*got))
	}
	called := false
	m.Update("missing", func(_ *[]int, ok bool) {
		called = true
		if ok {
			t.Fatal("missing key reported present")
		}
	})
	if !called {
		t.Fatal("Update skipped fn for a missing key")
	}
}

func TestRangeVisitsAll(t *testing.T) {
	m := NewUint64[int]()
	for i := uint64(0); i < 100; i++ {
		m.Store(i, int(i))
	}
	seen := make(map[uint64]bool)
	m.Range(func(k uint64, v int) bool {
		seen[k] = true
		return true
	})
	if len(seen) != 100 {
		t.Fatalf("Range visited %d keys, want 100", len(seen))
	}
	n := 0
	m.Range(func(uint64, int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early-exit Range visited %d entries, want 1", n)
	}
}

func TestConcurrentMixedAccess(t *testing.T) {
	m := NewUint32[string]()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := uint32(w*500 + i)
				m.Store(k, fmt.Sprintf("v%d", k))
				if v, ok := m.Load(k); !ok || v == "" {
					t.Errorf("Load(%d) missing", k)
					return
				}
				if i%3 == 0 {
					m.Delete(k)
				}
			}
		}(w)
	}
	wg.Wait()
	want := 0
	for w := 0; w < 8; w++ {
		for i := 0; i < 500; i++ {
			if i%3 != 0 {
				want++
			}
		}
	}
	if m.Len() != want {
		t.Fatalf("Len = %d, want %d", m.Len(), want)
	}
}

func TestHashSpreadsSequentialKeys(t *testing.T) {
	counts := make(map[uint64]int)
	for i := uint64(0); i < 1024; i++ {
		counts[HashUint64(i)%stripeCount]++
	}
	for s, n := range counts {
		if n > 1024/stripeCount*3 {
			t.Fatalf("stripe %d holds %d of 1024 sequential keys", s, n)
		}
	}
}
