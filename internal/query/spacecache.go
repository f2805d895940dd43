package query

import (
	"strings"
	"sync"

	"repro/internal/dataframe"
)

// SpaceCache builds template search spaces over one relevant table, caching
// the expensive per-attribute work (distinct-value scans, quantile grids)
// across templates. Query template identification walks an attribute-subset
// tree where every attribute reappears in many combinations, so without the
// cache the same column is scanned once per tree node; with it, once per
// table. Whole spaces are cached too, keyed on the template's exact layout.
// Safe for concurrent use.
type SpaceCache struct {
	r    *dataframe.Table
	opts SpaceOptions

	mu     sync.Mutex
	dims   map[string]*dimEntry
	spaces map[string]*spaceEntry
}

// spaceEntry and dimEntry are placeholders stored under mu on first lookup
// and filled once, so concurrent callers for one key share a single build
// and all see the same value (the JoinCache.trainIndex pattern).
type spaceEntry struct {
	once sync.Once
	s    *Space
	err  error
}

type dimEntry struct {
	once sync.Once
	pd   predDim
	err  error
}

// NewSpaceCache builds a cache over one relevant table with fixed
// discretisation options.
func NewSpaceCache(r *dataframe.Table, opts SpaceOptions) *SpaceCache {
	return &SpaceCache{
		r:      r,
		opts:   opts.normalized(),
		dims:   map[string]*dimEntry{},
		spaces: map[string]*spaceEntry{},
	}
}

// Space returns the search space of a template's query pool, equivalent to
// BuildSpace(r, t, opts) but reusing cached per-attribute domains.
func (c *SpaceCache) Space(t Template) (*Space, error) {
	key := templateKey(t)
	c.mu.Lock()
	ent, ok := c.spaces[key]
	if !ok {
		ent = &spaceEntry{}
		c.spaces[key] = ent
	}
	c.mu.Unlock()
	ent.once.Do(func() {
		ent.s, ent.err = assembleSpace(c.r, t, c.predDim)
	})
	return ent.s, ent.err
}

// predDim returns the cached value domain of one predicate attribute.
func (c *SpaceCache) predDim(attr string) (predDim, error) {
	c.mu.Lock()
	ent, ok := c.dims[attr]
	if !ok {
		ent = &dimEntry{}
		c.dims[attr] = ent
	}
	c.mu.Unlock()
	ent.once.Do(func() {
		ent.pd, ent.err = buildPredDim(c.r, attr, c.opts)
	})
	return ent.pd, ent.err
}

// templateKey is an exact identity for a template's space layout: every
// component list in order (order fixes the dimension layout).
func templateKey(t Template) string {
	var sb strings.Builder
	for _, f := range t.Funcs {
		sb.WriteString(f.String())
		sb.WriteByte('\x1e')
	}
	sb.WriteByte('\x1f')
	sb.WriteString(strings.Join(t.AggAttrs, "\x1e"))
	sb.WriteByte('\x1f')
	sb.WriteString(strings.Join(t.PredAttrs, "\x1e"))
	sb.WriteByte('\x1f')
	sb.WriteString(strings.Join(t.Keys, "\x1e"))
	return sb.String()
}
