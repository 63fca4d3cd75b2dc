package producer

// deque is a ring-buffer double-ended queue of records. Retried records
// re-enter at the front so they keep their place ahead of younger
// messages, as Kafka's accumulator reinserts retried batches.
type deque struct {
	buf   []*record
	head  int
	count int
}

func (d *deque) len() int { return d.count }

func (d *deque) grow() {
	n := len(d.buf) * 2
	if n == 0 {
		n = 16
	}
	buf := make([]*record, n)
	for i := 0; i < d.count; i++ {
		buf[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf = buf
	d.head = 0
}

func (d *deque) pushBack(r *record) {
	if d.count == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.count)%len(d.buf)] = r
	d.count++
}

func (d *deque) popFront() *record {
	if d.count == 0 {
		return nil
	}
	r := d.buf[d.head]
	d.buf[d.head] = nil
	d.head = (d.head + 1) % len(d.buf)
	d.count--
	return r
}

// peekFront returns the oldest record without removing it.
func (d *deque) peekFront() *record {
	if d.count == 0 {
		return nil
	}
	return d.buf[d.head]
}
