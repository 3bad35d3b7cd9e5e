package dist

// Seed derivation shared by every seeded stream of the reproduction (the
// experiment grid, tenant arrivals, chaos fault schedules): each coordinate
// of a stream folds through one SplitMix64 round, so substreams never
// collide and none depends on the order in which the others are drawn.

// splitmix64 is the finalizer of the SplitMix64 generator (Steele et al.,
// "Fast Splittable Pseudorandom Number Generators"): an invertible mix
// whose outputs pass BigCrush, so nearby inputs land far apart.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Label hashes a string coordinate (FNV-1a 64) into a word DeriveSeed can
// mix.
func Label(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// DeriveSeed chains the base seed, a stream label, and the stream's
// coordinates through one splitmix round per part, returning a non-negative
// seed for math/rand.
func DeriveSeed(base int64, stream string, parts ...uint64) int64 {
	h := splitmix64(uint64(base))
	h = splitmix64(h ^ Label(stream))
	for _, p := range parts {
		h = splitmix64(h ^ p)
	}
	return int64(h &^ (1 << 63))
}
