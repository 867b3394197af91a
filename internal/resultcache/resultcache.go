// Package resultcache is the campaign engine's persistent memo table: a
// content-addressed store of simulation results keyed by a hash of
// everything that determines them (engine version, trace fingerprint, core
// configuration, run options). A re-run of archcontest figures after
// editing one core configuration re-simulates only the runs whose keys
// changed; everything else is served from the backend.
//
// The cache has two tiers. An in-memory LRU of recently used encoded
// entries absorbs repeated lookups within a process; a pluggable Store
// backend persists across processes. Two backends ship with the package:
// DiskStore, the content-addressed on-disk tier (dir/ab/abcdef….gob,
// written atomically via rename), and HTTPStore, a remote object-store
// client for the /v1/blobs API served by BlobHandler — the shared result
// tier of a serve fleet. Both tiers store the gob encoding of the value,
// so a hit always decodes a fresh copy — cached results can never alias a
// caller's mutation.
//
// Corruption is never fatal: an entry that fails to read or decode is
// deleted from every tier and reported as a miss, so the worst case of a
// damaged cache backend is recomputation. A nil *Cache is a valid,
// always-miss cache, which is how the -cache.off flag is implemented.
package resultcache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// DefaultDir is the conventional on-disk location used by the cmd/ drivers.
const DefaultDir = ".archcontest-cache"

// Options tunes a cache.
type Options struct {
	// MemEntries bounds the in-memory LRU tier (default 1024 entries).
	MemEntries int
}

// Stats counts cache traffic since Open.
type Stats struct {
	// Hits counts lookups served from either tier; MemHits is the subset
	// served without touching the backend.
	Hits, MemHits int64
	// Misses counts lookups that found no usable entry.
	Misses int64
	// Stores counts successful Put calls.
	Stores int64
	// Corrupt counts entries that existed in the backend but failed to
	// decode (each is deleted and counted as a miss too).
	Corrupt int64
	// Errors counts backend write failures (the cache keeps working; the
	// entry is simply not persisted).
	Errors int64
}

// Cache is a two-tier content-addressed result store: an in-memory LRU in
// front of a pluggable Store backend. It is safe for concurrent use. The
// nil *Cache is a valid disabled cache: every Get misses and every Put is
// a no-op.
type Cache struct {
	store Store // nil = memory-only
	mu    sync.Mutex
	lru   *list.List               // of *memEntry, front = most recent
	byID  map[string]*list.Element // key -> element
	max   int

	hits, memHits, misses, stores, corrupt, errors atomic.Int64
}

type memEntry struct {
	key  string
	blob []byte
}

// Open returns a cache over the conventional disk backend rooted at dir,
// creating it if needed. An empty dir yields a memory-only cache (useful
// for tests and one-shot processes).
func Open(dir string, opts Options) (*Cache, error) {
	if dir == "" {
		return New(nil, opts), nil
	}
	store, err := NewDiskStore(dir)
	if err != nil {
		return nil, err
	}
	return New(store, opts), nil
}

// New returns a cache over an explicit backend. A nil store yields a
// memory-only cache: the LRU tier is the only tier.
func New(store Store, opts Options) *Cache {
	if opts.MemEntries <= 0 {
		opts.MemEntries = 1024
	}
	return &Cache{
		store: store,
		lru:   list.New(),
		byID:  make(map[string]*list.Element),
		max:   opts.MemEntries,
	}
}

// Key derives the content address for an artifact: a SHA-256 over the kind
// tag and the canonical JSON of every part, in order. Parts must be
// JSON-marshalable values (the config/option structs of this repository
// all are); an unmarshalable part is a programming error and panics.
func Key(kind string, parts ...any) string {
	h := sha256.New()
	io.WriteString(h, kind)
	h.Write([]byte{0})
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			panic(fmt.Sprintf("resultcache: unhashable key part %T: %v", p, err))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Get looks the key up in both tiers and gob-decodes the entry into out
// (which must be a pointer to the type that was Put). It reports whether
// out was populated. A present-but-undecodable entry is dropped and
// reported as a miss.
func (c *Cache) Get(key string, out any) bool {
	if c == nil {
		return false
	}
	if blob, ok := c.memGet(key); ok {
		if c.decode(key, blob, out) {
			c.hits.Add(1)
			c.memHits.Add(1)
			return true
		}
		c.misses.Add(1)
		return false
	}
	if c.store == nil {
		c.misses.Add(1)
		return false
	}
	blob, err := c.store.Get(key)
	if err != nil {
		if err != ErrNotFound {
			c.errors.Add(1)
		}
		c.misses.Add(1)
		return false
	}
	if !c.decode(key, blob, out) {
		c.misses.Add(1)
		return false
	}
	c.memPut(key, blob)
	c.hits.Add(1)
	return true
}

// Put stores the gob encoding of val under key in both tiers. Failures
// degrade the cache (the entry may not persist) but never the caller.
func (c *Cache) Put(key string, val any) {
	if c == nil {
		return
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(val); err != nil {
		panic(fmt.Sprintf("resultcache: unencodable value %T: %v", val, err))
	}
	blob := buf.Bytes()
	c.memPut(key, blob)
	if c.store != nil {
		if err := c.store.Put(key, blob); err != nil {
			c.errors.Add(1)
			return
		}
	}
	c.stores.Add(1)
}

// Stats reports the traffic counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:    c.hits.Load(),
		MemHits: c.memHits.Load(),
		Misses:  c.misses.Load(),
		Stores:  c.stores.Load(),
		Corrupt: c.corrupt.Load(),
		Errors:  c.errors.Load(),
	}
}

// Store reports the backend ("" tier excluded; nil for memory-only caches).
func (c *Cache) Store() Store {
	if c == nil {
		return nil
	}
	return c.store
}

// Dir reports the backend location ("" for memory-only caches). The name
// is historical: for disk backends it is the on-disk root, for remote
// backends the base URL.
func (c *Cache) Dir() string {
	if c == nil || c.store == nil {
		return ""
	}
	return c.store.Location()
}

// decode unpacks a blob, dropping the entry from both tiers on corruption.
func (c *Cache) decode(key string, blob []byte, out any) bool {
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(out); err == nil {
		return true
	}
	c.corrupt.Add(1)
	c.memDrop(key)
	if c.store != nil {
		c.store.Delete(key)
	}
	return false
}

func (c *Cache) memGet(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byID[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*memEntry).blob, true
}

func (c *Cache) memPut(key string, blob []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byID[key]; ok {
		el.Value.(*memEntry).blob = blob
		c.lru.MoveToFront(el)
		return
	}
	c.byID[key] = c.lru.PushFront(&memEntry{key: key, blob: blob})
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.byID, oldest.Value.(*memEntry).key)
	}
}

func (c *Cache) memDrop(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byID[key]; ok {
		c.lru.Remove(el)
		delete(c.byID, key)
	}
}
