// Package cache provides the set-associative LRU caches of the simulated
// manycore (per-node L1s, private or shared-SNUCA L2 banks) and the
// centralized L2 tag directory that private-L2 systems cache at the memory
// controllers (Figure 2a). Caches optionally publish hit/miss/eviction
// counters and trace events through the observability layer (Instrument).
package cache

import (
	"fmt"

	"offchip/internal/engine"
	"offchip/internal/mesh"
	"offchip/internal/obs"
)

// Cache is a set-associative cache with LRU replacement. It tracks only
// tags (the simulator never stores data), which is all latency modeling
// needs.
type Cache struct {
	sets      int
	ways      int
	lineBytes int64

	tags    [][]int64
	valid   [][]bool
	lastUse [][]int64
	tick    int64

	Hits, Misses int64

	// Observability (set by Instrument; handle methods are nil-safe, so an
	// uninstrumented cache pays only nil checks).
	comp      string
	tracer    *obs.Tracer
	clock     engine.Clock
	hitC      *obs.Counter
	missC     *obs.Counter
	evictC    *obs.Counter
	Evictions int64
}

// Instrument attaches the cache to an observer under the component name
// (e.g. "l1.3"): hit/miss/eviction counters in the registry plus, when a
// tracer is present, per-access trace events stamped from the clock.
// Taking engine.Clock (not a func) keeps the attachment allocation-free:
// a *Sim converts to the interface directly, with no closure.
func (c *Cache) Instrument(o *obs.Observer, comp string, clock engine.Clock) {
	if o == nil {
		return
	}
	c.comp = comp
	c.tracer = o.Tracer
	c.clock = clock
	label := "comp=" + comp
	c.hitC = o.Reg.Counter("cache", "hits", label)
	c.missC = o.Reg.Counter("cache", "misses", label)
	c.evictC = o.Reg.Counter("cache", "evictions", label)
}

// New builds a cache of the given total capacity. Capacity must be a
// multiple of lineBytes×ways so the set count is a whole number (and a
// power of two is not required).
func New(capacityBytes, lineBytes int64, ways int) *Cache {
	if capacityBytes <= 0 || lineBytes <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache: bad geometry %dB/%dB/%d-way", capacityBytes, lineBytes, ways))
	}
	lines := capacityBytes / lineBytes
	sets := int(lines) / ways
	if sets == 0 {
		sets = 1
	}
	c := &Cache{sets: sets, ways: ways, lineBytes: lineBytes}
	c.tags = make([][]int64, sets)
	c.valid = make([][]bool, sets)
	c.lastUse = make([][]int64, sets)
	// One backing array per field: a cache is allocated per core per run,
	// and per-set slices would cost sets×3 allocations each time.
	tags := make([]int64, sets*ways)
	valid := make([]bool, sets*ways)
	lastUse := make([]int64, sets*ways)
	for s := 0; s < sets; s++ {
		lo, hi := s*ways, (s+1)*ways
		c.tags[s] = tags[lo:hi:hi]
		c.valid[s] = valid[lo:hi:hi]
		c.lastUse[s] = lastUse[lo:hi:hi]
	}
	return c
}

// LineBytes returns the cache's line size.
func (c *Cache) LineBytes() int64 { return c.lineBytes }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr int64) int64 { return addr - addr%c.lineBytes }

func (c *Cache) setOf(line int64) int {
	// XOR-folded set index, as in real L2 designs: strided access patterns
	// (including the cluster-interleaved layouts this simulator exists to
	// study) would otherwise alias a fraction of the sets and manufacture
	// conflict misses the paper's hardware does not see.
	x := line / c.lineBytes
	return int((x ^ (x >> 5) ^ (x >> 11)) % int64(c.sets))
}

// Access looks up the line containing addr, filling it on a miss. It
// returns whether the access hit, and the address of the line evicted to
// make room (-1 when nothing valid was evicted).
func (c *Cache) Access(addr int64) (hit bool, evicted int64) {
	line := c.LineAddr(addr)
	s := c.setOf(line)
	c.tick++
	victim := 0
	for w := 0; w < c.ways; w++ {
		if c.valid[s][w] && c.tags[s][w] == line {
			c.lastUse[s][w] = c.tick
			c.Hits++
			c.hitC.Inc()
			if c.tracer.Enabled() {
				c.tracer.Emit(c.clock.Now(), "cache", "hit", c.comp, 0)
			}
			return true, -1
		}
		if !c.valid[s][w] {
			victim = w
		} else if c.valid[s][victim] && c.lastUse[s][w] < c.lastUse[s][victim] {
			victim = w
		}
	}
	c.Misses++
	c.missC.Inc()
	evicted = -1
	if c.valid[s][victim] {
		evicted = c.tags[s][victim]
		c.Evictions++
		c.evictC.Inc()
	}
	c.tags[s][victim] = line
	c.valid[s][victim] = true
	c.lastUse[s][victim] = c.tick
	if c.tracer.Enabled() {
		c.tracer.Emit(c.clock.Now(), "cache", "miss", c.comp, 0)
		if evicted >= 0 {
			c.tracer.Emit(c.clock.Now(), "cache", "evict", c.comp, 0)
		}
	}
	return false, evicted
}

// Contains reports whether the line containing addr is present, without
// disturbing LRU state or statistics.
func (c *Cache) Contains(addr int64) bool {
	line := c.LineAddr(addr)
	s := c.setOf(line)
	for w := 0; w < c.ways; w++ {
		if c.valid[s][w] && c.tags[s][w] == line {
			return true
		}
	}
	return false
}

// Invalidate drops the line containing addr if present.
func (c *Cache) Invalidate(addr int64) {
	line := c.LineAddr(addr)
	s := c.setOf(line)
	for w := 0; w < c.ways; w++ {
		if c.valid[s][w] && c.tags[s][w] == line {
			c.valid[s][w] = false
			return
		}
	}
}

// MissRate returns misses / accesses (0 when never accessed).
func (c *Cache) MissRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}

// MaxDirectoryCores bounds the sharer bitmask width of the directory.
const MaxDirectoryCores = 64

// Directory is the centralized L2 tag directory of the private-L2 system,
// logically partitioned across memory controllers: it records which
// private L2s hold each line so a miss can be served by an on-chip
// cache-to-cache transfer instead of going off-chip.
type Directory struct {
	sharers map[int64]uint64
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{sharers: map[int64]uint64{}}
}

// Owner returns the core whose L2 holds the line that is nearest to the
// requester by mesh hop distance (on a width-meshX mesh, row-major core
// IDs), or -1 when no other L2 holds it. The requester itself is excluded —
// its own L2 already missed. Ties break toward the lowest core ID, keeping
// the choice deterministic. Picking the nearest sharer models a
// distance-aware directory: always forwarding from the lowest-numbered
// sharer would bias every cache-to-cache transfer toward core 0's corner
// and turn it into a hotspot for widely shared lines.
func (d *Directory) Owner(line int64, requester, meshX int) int {
	m := d.sharers[line]
	if m == 0 {
		return -1
	}
	reqNode := mesh.CoordOf(requester, meshX)
	best, bestD := -1, 1<<30
	for i := 0; i < MaxDirectoryCores; i++ {
		if m&(1<<uint(i)) == 0 || i == requester {
			continue
		}
		if dist := mesh.Dist(reqNode, mesh.CoordOf(i, meshX)); dist < bestD {
			best, bestD = i, dist
		}
	}
	return best
}

// Add records that core's L2 now holds the line.
func (d *Directory) Add(line int64, core int) {
	if core < 0 || core >= MaxDirectoryCores {
		panic(fmt.Sprintf("cache: directory core %d out of range", core))
	}
	d.sharers[line] |= 1 << uint(core)
}

// Remove records that core's L2 evicted the line.
func (d *Directory) Remove(line int64, core int) {
	if core < 0 || core >= MaxDirectoryCores {
		return
	}
	m := d.sharers[line] &^ (1 << uint(core))
	if m == 0 {
		delete(d.sharers, line)
	} else {
		d.sharers[line] = m
	}
}

// Entries returns the number of tracked lines (for tests).
func (d *Directory) Entries() int { return len(d.sharers) }

// Sharers returns the bitmask of cores whose L2s hold the line.
func (d *Directory) Sharers(line int64) uint64 { return d.sharers[line] }
