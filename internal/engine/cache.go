package engine

import (
	"container/list"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/marginal"
	"repro/internal/strategy"
)

// PlanCache memoises Step-1 strategy plans across releases. The key covers
// everything a plan can depend on — domain dimension, workload masks,
// strategy identity and query weights — so a hit is always safe to reuse
// (privacy and budgeting never reach planning and are deliberately not in
// the key, letting one plan serve a whole ε sweep). Cached plans are shared read-only: every built-in
// strategy's Plan closures are pure functions of their captured inputs,
// which is what makes concurrent reuse sound.
//
// This is the serving-scenario amortisation: repeated releases over the same
// schema (fresh seed or fresh data each time) skip planning entirely —
// decisive for the cluster strategy, whose greedy search costs orders of
// magnitude more than measurement (Figure 6).
type PlanCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	hits    uint64
	misses  uint64
}

type cacheEntry struct {
	key  string
	plan *strategy.Plan
}

// DefaultPlanCacheSize bounds a cache built with NewPlanCache(0).
const DefaultPlanCacheSize = 128

// NewPlanCache returns an LRU plan cache holding up to maxEntries plans
// (0 means DefaultPlanCacheSize).
func NewPlanCache(maxEntries int) *PlanCache {
	if maxEntries <= 0 {
		maxEntries = DefaultPlanCacheSize
	}
	return &PlanCache{
		max:     maxEntries,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits, Misses uint64
	Entries      int
}

// Stats returns the cache counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.entries)}
}

func (c *PlanCache) get(key string) (*strategy.Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).plan, true
}

func (c *PlanCache) put(key string, plan *strategy.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).plan = plan
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, plan: plan})
	for len(c.entries) > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// Records returns the serializable residue of every cached plan that
// carries one (currently: cluster plans — see strategy.PlanRecord), in LRU
// order from most to least recently used. The records round-trip through
// Install, which is how internal/store persists warm plans across process
// restarts.
func (c *PlanCache) Records() []*strategy.PlanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*strategy.PlanRecord
	for el := c.order.Front(); el != nil; el = el.Next() {
		if rec := el.Value.(*cacheEntry).plan.Persist; rec != nil {
			out = append(out, rec)
		}
	}
	return out
}

// Install rebuilds each record's plan (strategy.RebuildPlan — no search) and
// inserts it under the exact key the live planner would compute, so the next
// release over that workload is a cache hit. Returns how many records were
// installed; a record that fails to rebuild is skipped (a stale or corrupt
// snapshot must not take the cache down) and reported in the error, with
// the remaining records still installed.
func (c *PlanCache) Install(recs []*strategy.PlanRecord) (int, error) {
	var firstErr error
	n := 0
	for _, rec := range recs {
		plan, w, err := strategy.RebuildPlan(rec)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		plan.Key = planKey(w, Config{
			Strategy:     strategy.Cluster{MaxMerges: rec.MaxMerges},
			QueryWeights: rec.Weights,
		})
		c.put(plan.Key, plan)
		n++
	}
	return n, firstErr
}

// planKey serialises the plan-relevant parts of a run: strategy identity,
// domain dimension, the exact workload mask sequence and query weights.
// Privacy parameters and the budgeting mode deliberately stay out of the
// key — planning never sees them (Strategy.Plan takes only the workload, and
// PlanWeighted only the weights), so keying on them would re-run the
// expensive Step-1 search once per ε of a sweep for no gain.
func planKey(w *marginal.Workload, cfg Config) string {
	var b strings.Builder
	if k, ok := cfg.Strategy.(strategy.PlanKeyer); ok {
		b.WriteString(k.PlanCacheKey())
	} else {
		b.WriteString(cfg.Strategy.Name())
	}
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(w.D))
	b.WriteByte('|')
	for _, m := range w.Marginals {
		b.WriteString(strconv.FormatUint(uint64(m.Alpha), 16))
		b.WriteByte(',')
	}
	if cfg.QueryWeights != nil {
		b.WriteByte('|')
		for _, v := range cfg.QueryWeights {
			b.WriteString(strconv.FormatUint(math.Float64bits(v), 16))
			b.WriteByte(',')
		}
	}
	return b.String()
}
