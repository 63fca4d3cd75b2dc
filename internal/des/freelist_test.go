package des

import (
	"math/bits"
	"slices"
	"testing"
)

type pooled struct {
	id   int
	next *pooled
}

// TestFreeListBlocks pins the block schedule — b, b, then as large as
// everything made so far, where b is 8 for a value of up to 128 B and
// what fits in 1 KiB, at least one, for a larger one — and that every
// value is zero on its first Get.
func TestFreeListBlocks(t *testing.T) {
	var l FreeList[pooled]
	var sizes []int
	for i := 0; i < 256; i++ {
		fresh := len(l.block) == 0
		v := l.Get()
		if fresh {
			sizes = append(sizes, len(l.block)+1)
		}
		if *v != (pooled{}) {
			t.Fatalf("value %d is %+v on its first Get, want zero", i, *v)
		}
		v.id, v.next = i, v
	}
	if want := []int{8, 8, 16, 32, 64, 128}; !slices.Equal(sizes, want) {
		t.Fatalf("block sizes %v, want %v", sizes, want)
	}
	if l.made != 256 {
		t.Fatalf("made %d, want 256", l.made)
	}
	if got, want := blockSizes[[128]byte](64), []int{8, 8, 16, 32}; !slices.Equal(got, want) {
		t.Errorf("128 B values: block sizes %v, want %v", got, want)
	}
	if got, want := blockSizes[[300]byte](48), []int{3, 3, 6, 12, 24}; !slices.Equal(got, want) {
		t.Errorf("300 B values: block sizes %v, want %v", got, want)
	}
	if got, want := blockSizes[[4096]byte](8), []int{1, 1, 2, 4}; !slices.Equal(got, want) {
		t.Errorf("4 KiB values: block sizes %v, want %v", got, want)
	}
}

// blockSizes takes n values from a new FreeList[T] and returns the sizes
// of the blocks it carved.
func blockSizes[T any](n int) []int {
	var l FreeList[T]
	var sizes []int
	for i := 0; i < n; i++ {
		fresh := len(l.block) == 0
		l.Get()
		if fresh {
			sizes = append(sizes, len(l.block)+1)
		}
	}
	return sizes
}

// TestFreeListReusesLastPut checks Put→Get order: the value put back last
// comes out first, as it was left (the owner resets, not the list), and
// only an empty list hands out a new value.
func TestFreeListReusesLastPut(t *testing.T) {
	var l FreeList[pooled]
	a, b, c := l.Get(), l.Get(), l.Get()
	a.id, b.id, c.id = 1, 2, 3
	l.Put(a)
	l.Put(c)
	if got := l.Get(); got != c || got.id != 3 {
		t.Fatalf("first Get after Put(a), Put(c) = %p id %d, want c", got, got.id)
	}
	if got := l.Get(); got != a || got.id != 1 {
		t.Fatalf("second Get = %p id %d, want a", got, got.id)
	}
	if got := l.Get(); got == a || got == b || got == c || *got != (pooled{}) {
		t.Fatalf("Get on an empty list = %+v, want a new zero value", *got)
	}
}

// TestFreeListAllocs: once warm, Get and Put allocate nothing, and warming
// up to n values costs two allocations per block, O(log n), not n.
func TestFreeListAllocs(t *testing.T) {
	var l FreeList[pooled]
	vs := make([]*pooled, 64)
	cycle := func() {
		for i := range vs {
			vs[i] = l.Get()
		}
		for _, v := range vs {
			l.Put(v)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("warm Get/Put allocated %.1f per 64-value cycle, want 0", allocs)
	}

	const n = 4096
	all := make([]*pooled, n)
	warm := func() {
		var l FreeList[pooled]
		for i := range all {
			all[i] = l.Get()
		}
		for _, v := range all {
			l.Put(v)
		}
	}
	// Ten blocks of 8, 8, 16, …, 2048, each with its free slice.
	want := float64(2 * (bits.Len(n) - 3))
	if allocs := testing.AllocsPerRun(1, warm); allocs != want {
		t.Errorf("warming up to %d values allocated %.0f times, want %.0f", n, allocs, want)
	}
}
