// Package lru is a sharded, size-bounded LRU cache for the read tier; its
// one user is serve's JSON result cache. Capacity is counted in
// caller-declared byte costs, not entries, so one oversized value cannot
// silently blow the budget, and the shard count keeps the lock uncontended
// under concurrent query load.
//
// Hit/miss/eviction counters and a live byte gauge are maintained
// internally; callers republish them into an obs.Registry as read-time
// callbacks (the package deliberately has no obs dependency).
package lru

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// shardCount is a power of two so the key hash folds with a mask. 16 shards
// keep the per-shard mutex cold at the concurrency levels the serve tier
// sees (GOMAXPROCS handlers).
const shardCount = 16

// Cache is a sharded LRU over string keys. The zero value is not usable;
// call New. A nil *Cache is a valid no-op cache: Get always misses and Put
// discards, so callers can thread one pointer through without nil checks.
type Cache[V any] struct {
	shards [shardCount]shard[V]

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	bytes     atomic.Int64
}

type shard[V any] struct {
	mu  sync.Mutex
	ll  *list.List // front = most recent
	m   map[string]*list.Element
	cur int64
	max int64
}

type entry[V any] struct {
	key  string
	val  V
	cost int64
}

// New builds a cache bounded at maxBytes of declared cost, split evenly
// across the shards. maxBytes <= 0 returns nil (the no-op cache).
func New[V any](maxBytes int64) *Cache[V] {
	if maxBytes <= 0 {
		return nil
	}
	c := &Cache[V]{}
	per := maxBytes / shardCount
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].m = make(map[string]*list.Element)
		c.shards[i].max = per
	}
	return c
}

// fnv1a is the shard hash; allocation-free over the key bytes.
func fnv1a(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func (c *Cache[V]) shard(key string) *shard[V] {
	return &c.shards[fnv1a(key)&(shardCount-1)]
}

// Get returns the cached value and promotes it to most-recently-used.
func (c *Cache[V]) Get(key string) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.m[key]
	if ok {
		s.ll.MoveToFront(el)
		v := el.Value.(*entry[V]).val
		s.mu.Unlock()
		c.hits.Add(1)
		return v, true
	}
	s.mu.Unlock()
	c.misses.Add(1)
	return zero, false
}

// Put inserts or replaces key with the given byte cost, evicting from the
// cold end until the shard fits. A value costing more than a whole shard is
// rejected outright rather than flushing everything else.
func (c *Cache[V]) Put(key string, v V, cost int64) {
	if c == nil {
		return
	}
	if cost < 1 {
		cost = 1
	}
	s := c.shard(key)
	if cost > s.max {
		return
	}
	s.mu.Lock()
	if el, ok := s.m[key]; ok {
		e := el.Value.(*entry[V])
		s.cur += cost - e.cost
		c.bytes.Add(cost - e.cost)
		e.val, e.cost = v, cost
		s.ll.MoveToFront(el)
	} else {
		s.m[key] = s.ll.PushFront(&entry[V]{key: key, val: v, cost: cost})
		s.cur += cost
		c.bytes.Add(cost)
	}
	for s.cur > s.max {
		back := s.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry[V])
		s.ll.Remove(back)
		delete(s.m, e.key)
		s.cur -= e.cost
		c.bytes.Add(-e.cost)
		c.evictions.Add(1)
	}
	s.mu.Unlock()
}

// Hits returns how many Gets found their key.
func (c *Cache[V]) Hits() uint64 {
	if c == nil {
		return 0
	}
	return c.hits.Load()
}

// Misses returns how many Gets came up empty.
func (c *Cache[V]) Misses() uint64 {
	if c == nil {
		return 0
	}
	return c.misses.Load()
}

// Evictions returns how many entries were pushed out by capacity pressure.
func (c *Cache[V]) Evictions() uint64 {
	if c == nil {
		return 0
	}
	return c.evictions.Load()
}

// Bytes returns the current declared-cost total across all shards.
func (c *Cache[V]) Bytes() int64 {
	if c == nil {
		return 0
	}
	return c.bytes.Load()
}

// Len returns the live entry count (sums shard sizes under their locks).
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}
