package cluster

import (
	"fmt"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per shard. 160 points per shard
// keeps the arc-length imbalance across 10k keys within ~±20% of the mean
// (pinned by TestRingBalance) while the whole ring for a 100-shard fleet is
// still only 16k points — one binary search over a flat array per route.
const DefaultVNodes = 160

// Ring consistent-hashes session IDs onto shard names. It is immutable
// after construction and therefore safe for concurrent use; membership
// changes (failover) are layered on top by the router, not by mutating the
// ring, so placement of surviving sessions never moves when a shard dies.
type Ring struct {
	points []ringPoint // sorted by hash
	shards []string
}

type ringPoint struct {
	hash  uint64
	shard int32
}

// fnv1a is FNV-1a 64; session IDs are random hex, so the avalanche of FNV
// plus the splitmix finalizer spreads vnode points uniformly.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the SplitMix64 finalizer, the same construction the chaos and
// experiment seed streams use: it decorrelates the sequential vnode indices
// so one shard's points do not clump.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewRing builds a ring of vnodes points per shard (DefaultVNodes when
// vnodes <= 0). Shard names must be unique.
func NewRing(shards []string, vnodes int) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(shards))
	r := &Ring{
		points: make([]ringPoint, 0, len(shards)*vnodes),
		shards: append([]string(nil), shards...),
	}
	for i, name := range shards {
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate shard %q on ring", name)
		}
		seen[name] = true
		base := fnv1a(name)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  mix64(base ^ mix64(uint64(v))),
				shard: int32(i),
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break on shard index so point order — and therefore ownership —
		// is independent of the shard list's order of insertion.
		return r.points[a].shard < r.points[b].shard
	})
	return r, nil
}

// Owner returns the shard that owns key: the first ring point clockwise from
// the key's hash.
func (r *Ring) Owner(key string) string {
	h := mix64(fnv1a(key))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.shards[r.points[i].shard]
}

// Spread counts how many of n synthetic keys land on each shard — the
// balance diagnostic behind the ring tests and `wire-serve route` startup
// logging.
func (r *Ring) Spread(n int) map[string]int {
	out := make(map[string]int, len(r.shards))
	for _, s := range r.shards {
		out[s] = 0
	}
	for i := 0; i < n; i++ {
		out[r.Owner("spread-"+strconv.Itoa(i))]++
	}
	return out
}
