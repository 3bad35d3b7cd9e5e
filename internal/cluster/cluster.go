// Package cluster is the sharded multi-node control plane: a stateless
// routing front end (`wire-serve route`) over a fleet of session-shard
// daemons (ordinary `wire-serve serve -shard` processes), turning N
// wire-serve processes into one logical controller-as-a-service API.
//
// Placement is consistent hashing: the router draws each new session's ID
// itself, hashes it onto the ring of configured shards, and forwards the
// create with the ID in the SessionIDHeader; every later request for that
// session hashes to the same shard. The ring is elastic: shards drain out
// gracefully (POST /v1/admin/drain migrates every hosted session to its
// post-drain owner while the shard keeps serving, then removes it from the
// ring), join or rejoin at runtime (POST /v1/admin/join migrates only the
// minimally-remapped key ranges onto the newcomer), and still fail over on
// unplanned death, detected by the router's heartbeat loop. Each topology
// operation carries a monotone fencing epoch so a stale restarted shard
// cannot double-serve sessions a peer has already adopted (see
// service/handoff.go).
//
// Failover is journal handoff. Every shard journals its sessions to its own
// directory (the same per-session WALs single-node wire-serve writes). When
// a shard misses enough heartbeats the router declares it dead, picks a
// surviving peer, and POSTs the dead shard's journal directories to the
// peer's /v1/admin/adopt endpoint; the peer resurrects every session by WAL
// replay — the same recoverSession machinery a restarted daemon uses — and
// the router re-routes the dead shard's sessions to it. While the handoff is
// in flight the router answers 503 shard_recovering with a Retry-After hint
// instead of routing into a half-recovered peer. Because the WAL replay
// restores each session's exactly-once sequence cache, a plan request
// retried across the failover is answered with the decision the dead shard
// already released — Wire-Plan-Seq semantics hold fleet-wide.
//
// The certificates are internal/scenario's TestShardCertify* tests: an
// N-shard in-process cluster under load with a mid-run shard kill must finish
// with zero dropped sessions and every decision stream byte-identical to a
// fault-free in-process twin. The elastic plane adds two harder runs:
// TestShardCertifyRollingRestart drains, restarts, and rejoins every shard in
// sequence under live traffic, and TestShardCertifyChurn applies a seeded
// random schedule of kill/drain/join events (internal/chaos) — both with the
// same zero-drop, byte-identical bar.
package cluster

import (
	"fmt"
	"strings"
)

// Shard is one session-shard daemon in the static shard map.
type Shard struct {
	// Name is the shard's stable identity on the ring.
	Name string `json:"name"`
	// URL is the shard daemon's base URL (e.g. "http://10.0.0.2:8080").
	URL string `json:"url"`
	// JournalDir is the shard's session journal directory as reachable by
	// its peers (shared filesystem): the unit of failover handoff.
	JournalDir string `json:"journal_dir"`
}

// ParseShard parses one "name=url=journal-dir" flag value.
func ParseShard(s string) (Shard, error) {
	parts := strings.SplitN(s, "=", 3)
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
		return Shard{}, fmt.Errorf("cluster: shard %q: want name=url=journal-dir", s)
	}
	return Shard{
		Name:       parts[0],
		URL:        strings.TrimRight(parts[1], "/"),
		JournalDir: parts[2],
	}, nil
}

// ValidateShards checks a shard map for emptiness and duplicates.
func ValidateShards(shards []Shard) error {
	if len(shards) == 0 {
		return fmt.Errorf("cluster: shard map is empty")
	}
	seen := make(map[string]bool, len(shards))
	for _, sh := range shards {
		if sh.Name == "" || sh.URL == "" || sh.JournalDir == "" {
			return fmt.Errorf("cluster: shard %+v: name, url, and journal_dir are all required", sh)
		}
		if seen[sh.Name] {
			return fmt.Errorf("cluster: duplicate shard name %q", sh.Name)
		}
		seen[sh.Name] = true
	}
	return nil
}
