// Command scistream runs the SciStream components: `s2cs` starts a control
// server on a gateway node; `session` acts as the user client (S2UC),
// issuing the inbound-request/outbound-request pair from the paper's §4.4
// over one TLS control connection per S2CS and printing the resulting
// connection map.
//
// Usage:
//
//	scistream s2cs [-addr 127.0.0.1:5000] [-cert-out s2cs.crt] \
//	    [-tunnel-cert s2ds-tunnel.crt] [-tunnel-key s2ds-tunnel.key]
//	scistream session -prod-s2cs HOST:PORT -cons-s2cs HOST:PORT \
//	    -prod-cert prod.crt -cons-cert cons.crt \
//	    -receiver_ports HOST:PORT[,HOST:PORT...] \
//	    [-tunnel haproxy|stunnel] [-num_conn 1]
//
// Each s2cs mints its own control certificate and writes it to -cert-out;
// the session command pins the two it is given. The S2DS tunnel between
// the facilities is mutual TLS under one shared identity: the first s2cs
// to start writes it to -tunnel-cert and -tunnel-key, and an s2cs started
// after it with the same paths loads it, so the two S2DS peers trust each
// other. For example, on one host:
//
//	scistream s2cs -addr 127.0.0.1:5000 -cert-out prod.crt &
//	scistream s2cs -addr 127.0.0.1:5001 -cert-out cons.crt &
//	scistream session -prod-s2cs 127.0.0.1:5000 -cons-s2cs 127.0.0.1:5001 \
//	    -prod-cert prod.crt -cons-cert cons.crt -receiver_ports 127.0.0.1:5672
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"ds2hpc/internal/scistream"
	"ds2hpc/internal/tlsutil"
)

// errUsage reports a command line that names no valid subcommand or misses
// a required flag; the command exits 2 on it.
var errUsage = errors.New("usage: scistream {s2cs|session} [flags]")

func main() {
	err := errUsage
	if len(os.Args) >= 2 {
		switch os.Args[1] {
		case "s2cs":
			err = runS2CS(os.Args[2:])
		case "session":
			err = runSession(os.Args[2:], os.Stdout)
		}
	}
	switch {
	case errors.Is(err, errUsage), errors.Is(err, flag.ErrHelp):
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "scistream:", err)
		os.Exit(1)
	}
}

func runS2CS(args []string) error {
	cs, err := startS2CS(args, os.Stdout)
	if err != nil {
		return err
	}
	defer cs.Close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	return nil
}

// startS2CS parses the s2cs flags and starts a control server.
func startS2CS(args []string, stdout io.Writer) (*scistream.S2CS, error) {
	flags := flag.NewFlagSet("s2cs", flag.ContinueOnError)
	addr := flags.String("addr", "127.0.0.1:0", "control listen address")
	certOut := flags.String("cert-out", "s2cs.crt", "file to write the server certificate to")
	tunnelCert := flags.String("tunnel-cert", "s2ds-tunnel.crt", "shared S2DS tunnel certificate (written if absent)")
	tunnelKey := flags.String("tunnel-key", "s2ds-tunnel.key", "shared S2DS tunnel private key (written if absent)")
	if err := flags.Parse(args); err != nil {
		return nil, err
	}

	// The container process generates a self-signed TLS certificate on
	// startup and launches S2CS with TLS enabled (§4.4).
	id, err := tlsutil.SelfSigned("s2cs", "127.0.0.1", "localhost")
	if err != nil {
		return nil, err
	}
	tunnelID, err := tunnelIdentity(*tunnelCert, *tunnelKey)
	if err != nil {
		return nil, err
	}
	cs, err := scistream.NewS2CS(scistream.S2CSConfig{
		Addr:           *addr,
		Identity:       id,
		TunnelIdentity: tunnelID,
		ServerName:     "127.0.0.1",
	})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(*certOut, id.CertPEM, 0o644); err != nil {
		cs.Close()
		return nil, err
	}
	fmt.Fprintf(stdout, "S2CS listening on %s (cert: %s, tunnel: %s)\n", cs.Addr(), *certOut, *tunnelCert)
	return cs, nil
}

// tunnelIdentity loads the shared tunnel identity from certPath and
// keyPath, first minting it and writing both files if certPath is absent.
func tunnelIdentity(certPath, keyPath string) (*tlsutil.Identity, error) {
	certPEM, err := os.ReadFile(certPath)
	if err == nil {
		keyPEM, err := os.ReadFile(keyPath)
		if err != nil {
			return nil, err
		}
		return tlsutil.FromPEM(certPEM, keyPEM)
	}
	if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	id, err := tlsutil.SelfSigned("s2ds-tunnel", "127.0.0.1", "localhost")
	if err != nil {
		return nil, err
	}
	// The key goes first: whoever finds the certificate finds its key.
	if err := os.WriteFile(keyPath, id.KeyPEM, 0o600); err != nil {
		return nil, err
	}
	if err := os.WriteFile(certPath, id.CertPEM, 0o644); err != nil {
		return nil, err
	}
	return id, nil
}

// runSession parses the session flags, creates the session and prints its
// connection map to stdout.
func runSession(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("session", flag.ContinueOnError)
	prodCS := flags.String("prod-s2cs", "", "producer-side S2CS control address (required)")
	consCS := flags.String("cons-s2cs", "", "consumer-side S2CS control address (required)")
	receivers := flags.String("receiver_ports", "", "streaming-service endpoints, comma separated (required)")
	prodCert := flags.String("prod-cert", "", "producer S2CS certificate PEM file (required)")
	consCert := flags.String("cons-cert", "", "consumer S2CS certificate PEM file (required)")
	tunnel := flags.String("tunnel", "haproxy", "tunnel driver: haproxy or stunnel")
	numConn := flags.Int("num_conn", 1, "parallel tunnel connections")
	if err := flags.Parse(args); err != nil {
		return err
	}
	if *prodCS == "" || *consCS == "" || *receivers == "" || *prodCert == "" || *consCert == "" {
		flags.Usage()
		return fmt.Errorf("%w: session needs -prod-s2cs, -cons-s2cs, -receiver_ports, -prod-cert and -cons-cert", errUsage)
	}
	prodPEM, err := os.ReadFile(*prodCert)
	if err != nil {
		return err
	}
	consPEM, err := os.ReadFile(*consCert)
	if err != nil {
		return err
	}
	uc := &scistream.S2UC{}
	sessions, err := uc.CreateSessions([]scistream.SessionRequest{{
		ProducerS2CS: *prodCS,
		ConsumerS2CS: *consCS,
		ProducerCert: prodPEM,
		ConsumerCert: consPEM,
		Targets:      strings.Split(*receivers, ","),
		Tunnel:       scistream.Tunnel(*tunnel),
		NumConn:      *numConn,
	}})
	if err != nil {
		return err
	}
	sess := sessions[0]
	fmt.Fprintf(stdout, "UID:          %s\n", sess.UID)
	fmt.Fprintf(stdout, "PROXY (WAN):  %s\n", sess.RemoteProxyAddr)
	fmt.Fprintf(stdout, "client addr:  %s\n", sess.ClientAddr)
	fmt.Fprintln(stdout, "point producers at the client addr; data flows through the overlay tunnel")
	return nil
}
