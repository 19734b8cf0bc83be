package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// echoTarget is a stand-in streaming service.
func echoTarget(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }()
		}
	}()
	return ln.Addr().String()
}

// TestSessionStreamsThroughTwoS2CS runs the command's two setups the way
// two gateway nodes would: each s2cs mints its own control certificate,
// the first writes the shared tunnel identity and the second loads it.
// Bytes sent to the session's client address must come back from the
// service through the mTLS tunnel.
func TestSessionStreamsThroughTwoS2CS(t *testing.T) {
	dir := t.TempDir()
	tunnelFlags := []string{
		"-tunnel-cert", filepath.Join(dir, "tunnel.crt"),
		"-tunnel-key", filepath.Join(dir, "tunnel.key"),
	}
	start := func(side string) string {
		args := append([]string{"-addr", "127.0.0.1:0", "-cert-out", filepath.Join(dir, side+".crt")}, tunnelFlags...)
		cs, err := startS2CS(args, io.Discard)
		if err != nil {
			t.Fatalf("%s s2cs: %v", side, err)
		}
		t.Cleanup(func() { cs.Close() })
		return cs.Addr()
	}
	prod := start("prod")
	if _, err := os.Stat(filepath.Join(dir, "tunnel.key")); err != nil {
		t.Fatalf("first s2cs did not write the tunnel key: %v", err)
	}
	cons := start("cons")

	var out bytes.Buffer
	err := runSession([]string{
		"-prod-s2cs", prod, "-cons-s2cs", cons,
		"-prod-cert", filepath.Join(dir, "prod.crt"), "-cons-cert", filepath.Join(dir, "cons.crt"),
		"-receiver_ports", echoTarget(t),
	}, &out)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	var clientAddr string
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "client addr:"); ok {
			clientAddr = strings.TrimSpace(rest)
		}
	}
	if clientAddr == "" {
		t.Fatalf("no client addr in session output:\n%s", out.String())
	}

	c, err := net.DialTimeout("tcp", clientAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	msg := []byte("bytes through the scistream command's tunnel")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("echo through tunnel: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo = %q, want %q", got, msg)
	}
}

func TestSessionRequiresCertificates(t *testing.T) {
	err := runSession([]string{
		"-prod-s2cs", "127.0.0.1:1", "-cons-s2cs", "127.0.0.1:2",
		"-receiver_ports", "127.0.0.1:3", "-prod-cert", "prod.crt",
	}, io.Discard)
	if !errors.Is(err, errUsage) {
		t.Fatalf("session without -cons-cert: err = %v, want a usage error", err)
	}
}
