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
// drain on SIGTERM/SIGINT: the in-flight job is checkpointed, handed
// back to the coordinator, and the worker deregisters, so a
// rescheduled worker resumes instead of restarting.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stackedsim/internal/core"
	"stackedsim/internal/farm"
	"stackedsim/internal/ledger"
	"stackedsim/internal/monitor"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func usage() int {
	fmt.Fprintln(os.Stderr, "usage: simfarm <coordinator|worker|status> [flags]")
	fmt.Fprintln(os.Stderr, "  simfarm coordinator -addr :9090 -ledger-dir DIR   serve the job API")
	fmt.Fprintln(os.Stderr, "  simfarm worker -coordinator HOST:PORT             simulate leased jobs")
	fmt.Fprintln(os.Stderr, "  simfarm status -coordinator HOST:PORT             print pool status JSON")
	return 2
}

func run(args []string) int {
	if len(args) == 0 {
		return usage()
	}
	switch args[0] {
	case "coordinator":
		return runCoordinator(args[1:])
	case "worker":
		return runWorker(args[1:])
	case "status":
		return runStatus(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "simfarm: unknown subcommand %q\n", args[0])
		return usage()
	}
}

func runCoordinator(args []string) int {
	fs := flag.NewFlagSet("simfarm coordinator", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "listen address (use :0 for a free port)")
	ledgerDir := fs.String("ledger-dir", "", "run-ledger store backing the job table (optional but strongly recommended: it makes results durable and repeat submissions free)")
	lease := fs.Duration("lease", 15*time.Second, "worker heartbeat deadline; a silent worker loses its job after this")
	maxQueue := fs.Int("max-queue", 1024, "pending-job bound; submissions past it are shed with 429")
	maxAttempts := fs.Int("max-attempts", 3, "failure budget per job before quarantine")
	backoffBase := fs.Duration("backoff-base", 250*time.Millisecond, "re-dispatch backoff after the first failure (doubles per failure)")
	backoffMax := fs.Duration("backoff-max", 30*time.Second, "re-dispatch backoff cap")
	fs.Parse(args)

	var led *ledger.Ledger
	if *ledgerDir != "" {
		l, err := ledger.Open(*ledgerDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simfarm: open ledger: %v\n", err)
			return 1
		}
		led = l
	}
	coord, err := farm.NewCoordinator(farm.Params{
		Ledger:      led,
		SimVersion:  core.SimVersion,
		Lease:       *lease,
		MaxQueue:    *maxQueue,
		MaxAttempts: *maxAttempts,
		BackoffBase: *backoffBase,
		BackoffMax:  *backoffMax,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "simfarm: %v\n", err)
		return 1
	}
	mon := &monitor.Server{
		Ledger:      led,
		FarmHandler: coord.Handler(),
		HealthFn: func() []monitor.HealthCheck {
			status, detail := coord.Health()
			return []monitor.HealthCheck{{Name: "workers", Status: status, Detail: detail}}
		},
	}
	if err := mon.Start(*addr); err != nil {
		fmt.Fprintf(os.Stderr, "simfarm: %v\n", err)
		return 1
	}
	fmt.Printf("simfarm coordinator: serving on %s\n", mon.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := mon.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "simfarm: shutdown: %v\n", err)
		return 1
	}
	fmt.Println("simfarm coordinator: drained")
	return 0
}

func runWorker(args []string) int {
	fs := flag.NewFlagSet("simfarm worker", flag.ExitOnError)
	coordinator := fs.String("coordinator", "", "coordinator address (host:port), required")
	name := fs.String("name", "", "worker name, unique within the pool (default host-pid)")
	poll := fs.Duration("poll", 250*time.Millisecond, "idle wait between lease attempts")
	checkpointEvery := fs.Int64("checkpoint-every", 1_000_000, "cycles between checkpoint uploads (each refreshes the digest a successor's replay from cycle zero is checked against; none saves work)")
	fs.Parse(args)

	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "simfarm: worker needs -coordinator HOST:PORT")
		return 2
	}
	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &farm.Worker{
		Client:          farm.NewClient(*coordinator),
		Name:            *name,
		Poll:            *poll,
		CheckpointEvery: *checkpointEvery,
		Log:             os.Stdout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("simfarm worker %s: polling %s\n", *name, *coordinator)
	w.Run(ctx)
	return 0
}

func runStatus(args []string) int {
	fs := flag.NewFlagSet("simfarm status", flag.ExitOnError)
	coordinator := fs.String("coordinator", "", "coordinator address (host:port), required")
	id := fs.String("id", "", "print one job's detail instead of the pool summary")
	fs.Parse(args)

	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "simfarm: status needs -coordinator HOST:PORT")
		return 2
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
		fmt.Fprintf(os.Stderr, "simfarm: %v\n", err)
		return 1
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "simfarm: %v\n", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}
