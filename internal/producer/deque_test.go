package producer

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func rec(key uint64) *record { return &record{key: key} }

func TestDequeFIFO(t *testing.T) {
	var d deque
	for i := uint64(1); i <= 5; i++ {
		d.pushBack(rec(i))
	}
	if d.len() != 5 {
		t.Fatalf("len = %d", d.len())
	}
	for i := uint64(1); i <= 5; i++ {
		if got := d.popFront(); got.key != i {
			t.Fatalf("pop %d = %d", i, got.key)
		}
	}
	if d.popFront() != nil {
		t.Error("pop from empty returned a record")
	}
}

func TestDequePeek(t *testing.T) {
	var d deque
	if d.peekFront() != nil {
		t.Error("peek on empty")
	}
	d.pushBack(rec(7))
	if d.peekFront().key != 7 {
		t.Error("peek wrong")
	}
	if d.len() != 1 {
		t.Error("peek consumed the record")
	}
}

func TestDequeGrowthAcrossWrap(t *testing.T) {
	var d deque
	// Force head to wrap before growth.
	for i := uint64(0); i < 12; i++ {
		d.pushBack(rec(i))
	}
	for i := uint64(0); i < 10; i++ {
		d.popFront()
	}
	for i := uint64(100); i < 140; i++ { // grows twice with a wrapped head
		d.pushBack(rec(i))
	}
	if got := d.popFront(); got.key != 10 {
		t.Fatalf("head after wrap+growth = %d, want 10", got.key)
	}
	if got := d.popFront(); got.key != 11 {
		t.Fatalf("second = %d, want 11", got.key)
	}
	for i := uint64(100); i < 140; i++ {
		if got := d.popFront(); got.key != i {
			t.Fatalf("got %d, want %d", got.key, i)
		}
	}
}

// Property: any interleaving of pushes and pops matches a slice model.
func TestPropertyDequeMatchesModel(t *testing.T) {
	f := func(seed uint64, ops uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 4))
		var d deque
		var model []uint64
		next := uint64(0)
		for op := 0; op < int(ops)+10; op++ {
			switch rng.IntN(4) {
			case 0, 1, 2: // pushBack
				d.pushBack(rec(next))
				model = append(model, next)
				next++
			case 3: // popFront
				got := d.popFront()
				if len(model) == 0 {
					if got != nil {
						return false
					}
					continue
				}
				if got == nil || got.key != model[0] {
					return false
				}
				model = model[1:]
			}
			if d.len() != len(model) {
				return false
			}
			if len(model) > 0 && d.peekFront().key != model[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
