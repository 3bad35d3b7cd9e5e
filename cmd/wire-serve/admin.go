package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"repro/internal/cluster"
)

// opTimeout bounds one topology operation (a drain or a join) started from
// the command line: admin's, and a shard's SIGTERM self-drain.
const opTimeout = 2 * time.Minute

type adminFlags struct {
	*flag.FlagSet
	router, drain, join *string
}

func newAdminFlags() *adminFlags {
	fs := newFlagSet("admin")
	return &adminFlags{
		FlagSet: fs,
		router:  fs.String("router", "http://127.0.0.1:8080", "router base URL"),
		drain:   fs.String("drain", "", "gracefully drain this shard out of the ring"),
		join:    fs.String("join", "", "join a shard as name=url=journal-dir"),
	}
}

// runAdmin drives the router's elastic membership endpoints: -drain moves a
// shard's sessions to its peers and removes it from the ring; -join adds (or
// re-adds after a restart) a shard, migrating the minimally-remapped key
// ranges onto it. Both block until the operation commits.
func runAdmin(args []string) error {
	f := newAdminFlags()
	if err := parseFlags(f.FlagSet, args, false); err != nil {
		return err
	}
	if (*f.drain == "") == (*f.join == "") {
		return fmt.Errorf("admin wants exactly one of -drain or -join")
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if *f.drain != "" {
		body, err := cluster.Drain(ctx, *f.router, *f.drain)
		if err != nil {
			return fmt.Errorf("drain %s: %w", *f.drain, err)
		}
		fmt.Printf("wire-serve admin: drained: %s\n", body)
		return nil
	}
	sh, err := cluster.ParseShard(*f.join)
	if err != nil {
		return err
	}
	body, err := cluster.Join(ctx, *f.router, sh)
	if err != nil {
		return fmt.Errorf("join %s: %w", sh.Name, err)
	}
	fmt.Printf("wire-serve admin: joined: %s\n", body)
	return nil
}
