package tlsutil

import (
	"crypto/tls"
	"io"
	"net"
	"testing"
)

func TestSelfSignedHandshake(t *testing.T) {
	id, err := SelfSigned("dsn1", "127.0.0.1", "localhost")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", id.ServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	errc := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err != nil {
			errc <- err
			return
		}
		_, err = c.Write(buf)
		errc <- err
	}()

	conn, err := tls.Dial("tcp", ln.Addr().String(), id.ClientConfig("127.0.0.1"))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ping" {
		t.Fatalf("echo mismatch: %q", buf)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestMutualTLS(t *testing.T) {
	id, err := SelfSigned("tunnel", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", id.MutualServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	accepted := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			accepted <- err
			return
		}
		defer c.Close()
		// Force the handshake so client-cert verification runs.
		accepted <- c.(*tls.Conn).Handshake()
	}()

	conn, err := tls.Dial("tcp", ln.Addr().String(), id.MutualClientConfig("127.0.0.1"))
	if err != nil {
		t.Fatalf("mtls dial: %v", err)
	}
	conn.Close()
	if err := <-accepted; err != nil {
		t.Fatalf("server handshake: %v", err)
	}
}

func TestMutualTLSRejectsNoClientCert(t *testing.T) {
	id, err := SelfSigned("tunnel", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", id.MutualServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		c.(*tls.Conn).Handshake()
		c.Close()
	}()
	conn, err := tls.Dial("tcp", ln.Addr().String(), id.ClientConfig("127.0.0.1"))
	if err != nil {
		return // handshake failed immediately, as expected
	}
	defer conn.Close()
	// Complete the handshake explicitly; server must reject.
	if err := conn.Handshake(); err == nil {
		// Some TLS versions surface the failure on first read instead.
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Fatal("expected handshake rejection without client cert")
		}
	}
}

func TestPoolFromPEM(t *testing.T) {
	id, err := SelfSigned("x", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PoolFromPEM(id.CertPEM); err != nil {
		t.Fatal(err)
	}
	if _, err := PoolFromPEM([]byte("not a cert")); err == nil {
		t.Fatal("expected error for garbage PEM")
	}
}

func TestSelfSignedDefaultsToLoopback(t *testing.T) {
	id, err := SelfSigned("default-hosts")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", id.ServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if c, err := ln.Accept(); err == nil {
			c.(*tls.Conn).Handshake()
			c.Close()
		}
	}()
	host, _, _ := net.SplitHostPort(ln.Addr().String())
	conn, err := tls.Dial("tcp", ln.Addr().String(), id.ClientConfig(host))
	if err != nil {
		t.Fatalf("default SAN should cover loopback: %v", err)
	}
	conn.Close()
}

func TestFromPEMRoundTrip(t *testing.T) {
	id, err := SelfSigned("shared", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := FromPEM(id.CertPEM, id.KeyPEM)
	if err != nil {
		t.Fatal(err)
	}
	// A peer holding the loaded copy must pass the original's mTLS check.
	ln, err := tls.Listen("tcp", "127.0.0.1:0", id.MutualServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if c, err := ln.Accept(); err == nil {
			c.(*tls.Conn).Handshake()
			c.Close()
		}
	}()
	conn, err := tls.Dial("tcp", ln.Addr().String(), loaded.MutualClientConfig("127.0.0.1"))
	if err != nil {
		t.Fatalf("loaded identity rejected: %v", err)
	}
	conn.Close()
	if _, err := FromPEM(id.CertPEM, []byte("not a key")); err == nil {
		t.Fatal("expected error for garbage key PEM")
	}
}
