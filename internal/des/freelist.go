package des

import "unsafe"

// firstBlockBytes bounds a FreeList's first two blocks: they hold 8
// values, or as many as fit in 1 KiB (at least one) when a value is
// larger than 128 B, so an owner that needs one large value at a time
// does not carve eight.
const firstBlockBytes = 1024

// FreeList recycles the values of one owner — a producer's records, a
// cluster's produce jobs, an endpoint's packets — on the single
// goroutine that runs its simulation. Get hands out the value Put back
// last; when none is waiting it takes the next value of the current
// block, and when the block is used up it allocates a new one as large
// as everything the list has made so far (b, b, 2b, 4b, …, where b is
// 8 for values of up to 128 B; see firstBlockBytes), and the free slice
// with room for every value made, so warming up to n values costs two
// allocations per block, O(log n) in all, instead of n.
//
// A value is zero the first time Get returns it. The list does not clear
// a value Put back: the owner resets what it must before Put and binds
// itself (an owner pointer, a timer, a callback) after Get, where a zero
// field says the value is new. The list belongs to its owner and dies
// with it; values are never shared between owners or runs. The zero
// value is an empty list, ready to use.
type FreeList[T any] struct {
	free  []*T // read by name in transport's packet audit: rename it there too
	block []T  // the current block's values not yet handed out
	made  int  // values taken from blocks so far
}

// Get returns a recycled value, or a zero one never handed out before.
func (l *FreeList[T]) Get() *T {
	if n := len(l.free); n > 0 {
		v := l.free[n-1]
		l.free = l.free[:n-1]
		return v
	}
	if len(l.block) == 0 {
		n := max(firstBlock[T](), l.made)
		l.block = make([]T, n)
		// The list is empty here, and Put never holds more values than
		// the blocks made: room for all of them now, so Put never grows it.
		l.free = make([]*T, 0, l.made+n)
	}
	v := &l.block[0]
	l.block = l.block[1:]
	l.made++
	return v
}

// Put gives v back for a later Get. v must have come from this list and
// must not be used by the owner again until Get returns it.
func (l *FreeList[T]) Put(v *T) { l.free = append(l.free, v) }

// firstBlock is the number of values in a FreeList[T]'s first two blocks.
func firstBlock[T any]() int {
	var v T
	if size := int(unsafe.Sizeof(v)); size > firstBlockBytes/8 {
		return max(1, firstBlockBytes/size)
	}
	return 8
}
