// Command simfarm runs the distributed experiment service.
//
//	simfarm coordinator -addr :9090 -ledger-dir /data/runs
//	simfarm worker -coordinator host:9090 [-name w1]
//	simfarm status -coordinator host:9090
//
// The coordinator mounts the job API under /farm/ on the standard
// monitor mux, so one address serves job dispatch, /healthz readiness
// (degraded when work is pending with no live workers, or the ledger
// store is unreachable), /metrics and the ledger's /runs endpoints.
// Workers simulate leased jobs under heartbeat-renewed leases and
// drain on SIGTERM/SIGINT: the in-flight job is stopped and handed back
// to the coordinator, and the worker deregisters; the next worker to
// lease the job reruns it from cycle zero.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stackedsim/internal/farm"
	"stackedsim/internal/ledger"
	"stackedsim/internal/monitor"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const usageText = `usage: simfarm <coordinator|worker|status> [flags]
  simfarm coordinator -addr :9090 -ledger-dir DIR   serve the job API
  simfarm worker -coordinator HOST:PORT             simulate leased jobs
  simfarm status -coordinator HOST:PORT             print pool status JSON
`

// run is main's body behind an exit code with injectable streams, like
// the other four commands: 0 on success (a coordinator or worker that
// drained on SIGINT/SIGTERM included), 1 on a runtime failure, 2 on a
// usage error, which also prints the usage text.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr, "")
	}
	fs := flag.NewFlagSet("simfarm "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	switch args[0] {
	case "coordinator":
		return runCoordinator(fs, args[1:], stdout, stderr)
	case "worker":
		return runWorker(fs, args[1:], stdout, stderr)
	case "status":
		return runStatus(fs, args[1:], stdout, stderr)
	}
	return usage(stderr, fmt.Sprintf("unknown subcommand %q", args[0]))
}

func usage(stderr io.Writer, why string) int {
	if why != "" {
		fmt.Fprintf(stderr, "simfarm: %s\n", why)
	}
	fmt.Fprint(stderr, usageText)
	return 2
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "simfarm: %v\n", err)
	return 1
}

// parseExit is the exit code of a command line fs.Parse turned away: it has
// printed why (or, for -h, the flag list).
func parseExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

func runCoordinator(fs *flag.FlagSet, args []string, stdout, stderr io.Writer) int {
	addr := fs.String("addr", "127.0.0.1:9090", "listen address (use :0 for a free port)")
	ledgerDir := fs.String("ledger-dir", "", "run-ledger store backing the job table (optional but strongly recommended: it makes results durable and repeat submissions free)")
	lease := fs.Duration("lease", 15*time.Second, "worker heartbeat deadline; a silent worker loses its job after this")
	maxQueue := fs.Int("max-queue", 1024, "pending-job bound; submissions past it are shed with 429")
	maxAttempts := fs.Int("max-attempts", 3, "failure budget per job before quarantine")
	backoffBase := fs.Duration("backoff-base", 250*time.Millisecond, "re-dispatch backoff after the first failure (doubles per failure)")
	backoffMax := fs.Duration("backoff-max", 30*time.Second, "re-dispatch backoff cap")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}

	var led *ledger.Ledger
	if *ledgerDir != "" {
		var err error
		if led, err = ledger.Open(*ledgerDir); err != nil {
			return fail(stderr, fmt.Errorf("open ledger: %w", err))
		}
	}
	coord := farm.NewCoordinator(farm.Params{
		Ledger:      led,
		Lease:       *lease,
		MaxQueue:    *maxQueue,
		MaxAttempts: *maxAttempts,
		BackoffBase: *backoffBase,
		BackoffMax:  *backoffMax,
	})
	mon := &monitor.Server{
		Ledger:      led,
		FarmHandler: coord.Handler(),
		HealthFn: func() []monitor.HealthCheck {
			status, detail := coord.Health()
			return []monitor.HealthCheck{{Name: "workers", Status: status, Detail: detail}}
		},
	}
	// Listen for the signal before announcing the address: whoever reads
	// the line may send it at once.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := mon.Start(*addr); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "simfarm coordinator: serving on %s\n", mon.Addr())

	<-ctx.Done()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := mon.Shutdown(shutCtx); err != nil {
		return fail(stderr, fmt.Errorf("shutdown: %w", err))
	}
	fmt.Fprintln(stdout, "simfarm coordinator: drained")
	return 0
}

func runWorker(fs *flag.FlagSet, args []string, stdout, stderr io.Writer) int {
	coordinator := fs.String("coordinator", "", "coordinator address (host:port), required")
	name := fs.String("name", "", "worker name, unique within the pool (default host-pid)")
	poll := fs.Duration("poll", 250*time.Millisecond, "idle wait between lease attempts")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	if *coordinator == "" {
		return usage(stderr, "worker needs -coordinator HOST:PORT")
	}
	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &farm.Worker{
		Client: farm.NewClient(*coordinator),
		Name:   *name,
		Poll:   *poll,
		Log:    stdout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(stdout, "simfarm worker %s: polling %s\n", *name, *coordinator)
	w.Run(ctx) //nolint:errcheck // the context's error: the drain that was asked for
	return 0
}

func runStatus(fs *flag.FlagSet, args []string, stdout, stderr io.Writer) int {
	coordinator := fs.String("coordinator", "", "coordinator address (host:port), required")
	id := fs.String("id", "", "print one job's detail instead of the pool summary")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	if *coordinator == "" {
		return usage(stderr, "status needs -coordinator HOST:PORT")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := farm.NewClient(*coordinator)
	var out any
	var err error
	if *id != "" {
		out, err = c.Job(ctx, *id)
	} else {
		out, err = c.Status(ctx)
	}
	if err != nil {
		return fail(stderr, err)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}
