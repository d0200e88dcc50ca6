package vector

import (
	"container/list"
	"sync"
)

// Seal declares b's cells immutable from now on and attaches an empty
// answer memo to it (see Memo). The dataset store seals every contingency
// vector it installs; nothing may write a sealed vector's cells afterwards,
// because memoized answers derived from them would silently go stale.
// Seal b before sharing it with other goroutines; sealing twice is a no-op.
// Copies made by Clone, CloneBlockLen or Sum are unsealed and carry no memo.
func (b *Blocked) Seal() {
	if b.memo == nil {
		b.memo = &Memo{
			max:     b.n / 4,
			entries: make(map[string]*list.Element),
			order:   list.New(),
		}
	}
}

// Memo returns a sealed vector's answer memo, or nil when b is unsealed.
func (b *Blocked) Memo() *Memo { return b.memo }

// Memo maps a strategy key to the exact strategy answers S·x over the
// sealed vector x that owns it. The answers depend only on x and S — not
// on ε, the budget allocation or the noise seed — so one entry serves every
// fresh-seed release of that strategy over x. The memo lives and dies with
// its vector: a new dataset version is a new vector with an empty memo, so
// no entry can outlive the cells it was computed from.
//
// Memory is bounded to Len()/4 float64s in total (entry keys aside): entries
// larger than that are never stored, and inserting past the bound evicts
// least-recently-used entries first. All methods are safe for concurrent
// use and treat a nil *Memo as an always-empty memo.
type Memo struct {
	mu      sync.Mutex
	max     int
	floats  int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	hits    uint64
	misses  uint64
}

type memoEntry struct {
	key     string
	answers []float64
}

// MemoStats is a point-in-time snapshot of one memo.
type MemoStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Floats is the number of float64s resident across all entries.
	Floats int `json:"floats"`
}

// Get returns the answers memoized under key. The slice is shared by every
// caller and must not be written.
func (m *Memo) Get(key string) ([]float64, bool) {
	if m == nil {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	if !ok {
		m.misses++
		return nil, false
	}
	m.hits++
	m.order.MoveToFront(el)
	return el.Value.(*memoEntry).answers, true
}

// Put memoizes a copy of answers' cells under key, unless they exceed the
// memo's bound. A key already present keeps its entry: the answers under
// one key over one sealed vector are the same bits whoever computed them.
func (m *Memo) Put(key string, answers *Blocked) {
	if m == nil || answers.Len() > m.max {
		return
	}
	v := make([]float64, answers.Len())
	answers.CopyTo(v)
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		m.order.MoveToFront(el)
		return
	}
	m.entries[key] = m.order.PushFront(&memoEntry{key: key, answers: v})
	m.floats += len(v)
	for m.floats > m.max {
		oldest := m.order.Back()
		e := m.order.Remove(oldest).(*memoEntry)
		delete(m.entries, e.key)
		m.floats -= len(e.answers)
	}
}

// Stats returns the memo's counters (zero for a nil memo).
func (m *Memo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Hits: m.hits, Misses: m.misses, Floats: m.floats}
}
