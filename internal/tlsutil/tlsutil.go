// Package tlsutil generates self-signed certificates and TLS configurations
// for the streaming deployments. It stands in for the openssl-based
// certificate generation performed by SciStream S2CS pods on startup and for
// the auto-generated certificates of the Bitnami RabbitMQ chart (paper §4.3,
// §4.4).
package tlsutil

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"fmt"
	"math/big"
	"net"
	"time"
)

// Identity bundles a certificate, its private key, and a pool trusting it.
type Identity struct {
	Cert tls.Certificate
	Pool *x509.CertPool
	// PEM-encoded certificate, as handed out by `s2uc --server_cert`.
	CertPEM []byte
	// PEM-encoded private key, so the identity can be saved and shared.
	KeyPEM []byte
}

// SelfSigned creates a fresh self-signed server identity for the given
// common name and SANs. It mirrors the "generate a self-signed TLS
// certificate using openssl" step of the S2CS container startup.
func SelfSigned(commonName string, hosts ...string) (*Identity, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("tlsutil: key generation: %w", err)
	}
	serial, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 128))
	if err != nil {
		return nil, fmt.Errorf("tlsutil: serial: %w", err)
	}
	tmpl := x509.Certificate{
		SerialNumber:          serial,
		Subject:               pkix.Name{CommonName: commonName, Organization: []string{"ds2hpc"}},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(24 * time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth, x509.ExtKeyUsageClientAuth},
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	if len(hosts) == 0 {
		hosts = []string{"127.0.0.1", "localhost"}
	}
	for _, h := range hosts {
		if ip := net.ParseIP(h); ip != nil {
			tmpl.IPAddresses = append(tmpl.IPAddresses, ip)
		} else {
			tmpl.DNSNames = append(tmpl.DNSNames, h)
		}
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("tlsutil: create certificate: %w", err)
	}
	certPEM := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		return nil, fmt.Errorf("tlsutil: marshal key: %w", err)
	}
	keyPEM := pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER})
	return FromPEM(certPEM, keyPEM)
}

// FromPEM loads an identity from a PEM certificate and its PEM private
// key, as saved from another identity's CertPEM and KeyPEM. Processes
// that load the same pair share one identity (and trust root).
func FromPEM(certPEM, keyPEM []byte) (*Identity, error) {
	cert, err := tls.X509KeyPair(certPEM, keyPEM)
	if err != nil {
		return nil, fmt.Errorf("tlsutil: key pair: %w", err)
	}
	pool, err := PoolFromPEM(certPEM)
	if err != nil {
		return nil, err
	}
	return &Identity{Cert: cert, Pool: pool, CertPEM: certPEM, KeyPEM: keyPEM}, nil
}

// ServerConfig returns a TLS config that serves this identity.
func (id *Identity) ServerConfig() *tls.Config {
	return &tls.Config{Certificates: []tls.Certificate{id.Cert}}
}

// MutualServerConfig returns a server config that also requires and
// verifies client certificates signed by this identity (mTLS as used on the
// SciStream overlay tunnel).
func (id *Identity) MutualServerConfig() *tls.Config {
	return &tls.Config{
		Certificates: []tls.Certificate{id.Cert},
		ClientAuth:   tls.RequireAndVerifyClientCert,
		ClientCAs:    id.Pool,
	}
}

// ClientConfig returns a TLS config that trusts this identity for the given
// server name.
func (id *Identity) ClientConfig(serverName string) *tls.Config {
	return &tls.Config{RootCAs: id.Pool, ServerName: serverName}
}

// MutualClientConfig returns a client config that presents this identity
// and trusts it as CA (proxy-certificate authentication between S2DS peers).
func (id *Identity) MutualClientConfig(serverName string) *tls.Config {
	return &tls.Config{
		RootCAs:      id.Pool,
		ServerName:   serverName,
		Certificates: []tls.Certificate{id.Cert},
	}
}

// PoolFromPEM builds a cert pool from a PEM-encoded certificate, as a client
// would from the file passed via `--server_cert`.
func PoolFromPEM(certPEM []byte) (*x509.CertPool, error) {
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(certPEM) {
		return nil, fmt.Errorf("tlsutil: invalid certificate PEM")
	}
	return pool, nil
}
