// Command rmq-server runs one ds2hpc broker node (or an n-node cluster),
// the RabbitMQ-equivalent streaming service deployed on the paper's Data
// Streaming Nodes. With -tls it serves AMQPS like the DTS deployment's
// node-exposed port 30671.
//
// With -data-dir each node persists its durable queues to an append-only
// segment log under that directory and replays them on restart; -fsync
// picks the durability/latency trade-off (never, interval, always).
//
// Usage:
//
//	rmq-server [-addr 127.0.0.1:5672] [-nodes 1] [-tls] [-mem-gb 4] [-rate-mbps 0]
//	           [-data-dir DIR] [-fsync never|interval|always]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"ds2hpc/internal/broker"
	"ds2hpc/internal/broker/seglog"
	"ds2hpc/internal/cluster"
	"ds2hpc/internal/netem"
	"ds2hpc/internal/tlsutil"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], sig, os.Stdout, nil); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "rmq-server:", err)
		os.Exit(1)
	}
}

// run parses flags, starts the broker cluster, reports the listen
// addresses, and blocks until a signal arrives. started, if non-nil, is
// invoked with the node addresses once every node is listening (tests use
// it to learn the ephemeral ports).
func run(args []string, sig <-chan os.Signal, out io.Writer, started func(addrs []string)) error {
	fs := flag.NewFlagSet("rmq-server", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:5672", "listen address (first node; :0 for ephemeral)")
		nodes    = fs.Int("nodes", 1, "number of broker nodes")
		withTLS  = fs.Bool("tls", false, "serve AMQPS with a self-signed certificate")
		memGB    = fs.Float64("mem-gb", 4, "memory limit per vhost in GiB (80% goes to payload queues)")
		rateMbps = fs.Float64("rate-mbps", 0, "emulated per-node link rate in Mbps (0 = unshaped)")
		dataDir  = fs.String("data-dir", "", "persist durable queues to segment logs under this directory (empty = in-memory only)")
		fsync    = fs.String("fsync", "", "segment log fsync policy: never, interval, always (default never)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := broker.Config{
		MemoryLimit: int64(*memGB * float64(1<<30) * 0.8),
	}
	if *fsync != "" && *dataDir == "" {
		return fmt.Errorf("-fsync requires -data-dir")
	}
	if *dataDir != "" {
		policy, err := seglog.ParseFsync(*fsync)
		if err != nil {
			return err
		}
		cfg.DataDir = *dataDir
		cfg.Durability = seglog.Options{Fsync: policy}
	}
	if *withTLS {
		id, err := tlsutil.SelfSigned("rmq-server", "127.0.0.1", "localhost")
		if err != nil {
			return err
		}
		cfg.TLS = id.ServerConfig()
		if err := os.WriteFile("rmq-server-ca.pem", id.CertPEM, 0o644); err == nil {
			fmt.Fprintln(out, "wrote rmq-server-ca.pem (client trust root)")
		}
	}
	cl, err := cluster.StartWithOptions(*nodes, cluster.Options{}, func(i int) broker.Config {
		c := cfg
		if i == 0 {
			c.Addr = *addr
		} else {
			c.Addr = "127.0.0.1:0"
		}
		if *rateMbps > 0 {
			c.Link = netem.NewLink(fmt.Sprintf("dsn-%d", i), netem.Mbps(*rateMbps), 0)
		}
		return c
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	scheme := "amqp"
	if *withTLS {
		scheme = "amqps"
	}
	for i, a := range cl.Addrs() {
		fmt.Fprintf(out, "node %d listening on %s://%s\n", i, scheme, a)
	}
	if started != nil {
		started(cl.Addrs())
	}

	<-sig
	fmt.Fprintln(out, "shutting down")
	return nil
}
