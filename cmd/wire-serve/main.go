// Command wire-serve hosts WIRE controllers as a long-running HTTP daemon and
// ships the tools that operate it:
//
//	wire-serve [serve] [flags]                     controller daemon (the default)
//	wire-serve route   [flags]                     routing front end of a shard fleet
//	wire-serve admin   [flags]                     drain or join a shard via the router
//	wire-serve audit   [flags] [journal-dir ...]   check a set of journals
//
// README.md ("wire-serve command line") lists every flag; each subcommand's
// file builds its own flag set. The fault certificates (daemon kill, shard
// kill, rolling restart, churn, partition) are tests of internal/scenario,
// and process_test.go drives the built binary through a real SIGKILL, drain
// and rejoin.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	switch err := run(os.Args[1:]); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "wire-serve:", err)
		os.Exit(1)
	}
}

// errUsage is a command line that was already reported, with the usage, on
// stderr.
var errUsage = errors.New("usage")

// run dispatches on the subcommand. A first argument that is a flag selects
// serve; any other word must name a subcommand.
func run(args []string) error {
	cmd := "serve"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "serve":
		return runServe(args)
	case "route":
		return runRoute(args)
	case "admin":
		return runAdmin(args)
	case "audit":
		return runAudit(args)
	}
	fmt.Fprintf(os.Stderr, "wire-serve: unknown subcommand %q (want serve, route, admin or audit)\n", cmd)
	return errUsage
}

// newFlagSet returns an empty flag set for a subcommand. Parse errors come
// back to run rather than exiting, so run alone decides the exit status.
func newFlagSet(cmd string) *flag.FlagSet {
	return flag.NewFlagSet("wire-serve "+cmd, flag.ContinueOnError)
}

// parseFlags parses args into fs and, unless positional is set, rejects any
// argument left over: parsing stops at the first word that is not a flag, so
// a stray word would otherwise drop every flag after it unseen.
func parseFlags(fs *flag.FlagSet, args []string, positional bool) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if !positional && fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "%s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		fs.Usage()
		return errUsage
	}
	return nil
}

// stderrf writes one operational log line to stderr.
func stderrf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// stringList is a repeatable string flag (-shard a -shard b).
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}
