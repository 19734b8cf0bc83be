// Package transport models the client→service connection path of a
// cross-facility streaming architecture as an ordered chain of hops.
// The paper's subject is precisely this path — direct AMQPS NodePorts
// (DTS, Figure 3a), SciStream proxies over a TLS overlay (PRS, 3b), a
// managed load balancer and ingress (MSS, 3c) — and each deployment in
// internal/core is declared as a Path composition instead of carrying
// its own dial/TLS/relay plumbing.
//
// A Hop transforms the dial step for everything after it; Path lists
// hops client-side first, so the first hop's connection wrapper is the
// outermost layer. The package also provides the shared server-side
// pieces every relaying hop needs: a half-close-correct Relay (one
// implementation instead of the former three copies in scistream and
// mss) and the Admission worker gate the MSS load balancer applies to
// connection setup. fault.go adds the WAN-fault injector that scripted
// resilience scenarios compose into a path.
package transport

import (
	"crypto/tls"
	"net"
	"time"

	"ds2hpc/internal/netem"
)

// DialFunc dials a transport connection. It is the signature shared with
// amqp.Config.Dial and the proxy stacks.
type DialFunc func(network, addr string) (net.Conn, error)

// Hop is one segment of a connection path. Apply wraps the dial step for
// everything beyond this hop and returns the combined dial step.
type Hop interface {
	// Name identifies the hop in diagnostics ("link(andes-nic)").
	Name() string
	// Apply composes the hop over the rest of the path.
	Apply(next DialFunc) DialFunc
}

// Path is an ordered hop chain, client-side first: the first hop is the
// segment nearest the client, and its connection wrapper (shaping, fault
// injection) becomes the outermost layer of the dialed connection.
type Path []Hop

// baseDial is the path terminus: a plain TCP dial with a bounded timeout.
func baseDial(network, addr string) (net.Conn, error) {
	return net.DialTimeout(network, addr, 10*time.Second)
}

// Dial composes the path over plain TCP dialing.
func (p Path) Dial() DialFunc { return p.DialOver(baseDial) }

// DialOver composes the path over an explicit base dialer.
func (p Path) DialOver(base DialFunc) DialFunc {
	d := base
	for i := len(p) - 1; i >= 0; i-- {
		d = p[i].Apply(d)
	}
	return d
}

// String renders the chain for diagnostics: "fault → link(nic) → tls".
func (p Path) String() string {
	if len(p) == 0 {
		return "direct"
	}
	s := p[0].Name()
	for _, h := range p[1:] {
		s += " → " + h.Name()
	}
	return s
}

// hop is a named Hop built from a compose function.
type hop struct {
	name  string
	apply func(next DialFunc) DialFunc
}

func (h hop) Name() string                 { return h.name }
func (h hop) Apply(next DialFunc) DialFunc { return h.apply(next) }

// HopFunc builds a Hop from a name and a compose function.
func HopFunc(name string, apply func(next DialFunc) DialFunc) Hop {
	return hop{name: name, apply: apply}
}

// Link shapes every connection dialed through the path with the given
// emulated link (a client NIC, a WAN segment). A nil link is a no-op hop.
func Link(l *netem.Link) Hop {
	name := "link"
	if l != nil {
		name = "link(" + l.Name + ")"
	}
	return HopFunc(name, func(next DialFunc) DialFunc {
		if l == nil {
			return next
		}
		return func(network, addr string) (net.Conn, error) {
			c, err := next(network, addr)
			if err != nil {
				return nil, err
			}
			return netem.Wrap(c, l), nil
		}
	})
}

// TLSClient originates TLS over the dialed connection — the client side
// of an AMQPS NodePort or of the MSS front door (where cfg.ServerName
// carries the SNI hostname the LB routes on). The handshake is driven
// eagerly so dial errors surface at connect time.
func TLSClient(cfg *tls.Config) Hop {
	name := "tls"
	if cfg != nil && cfg.ServerName != "" {
		name = "tls(sni=" + cfg.ServerName + ")"
	}
	return HopFunc(name, func(next DialFunc) DialFunc {
		return func(network, addr string) (net.Conn, error) {
			raw, err := next(network, addr)
			if err != nil {
				return nil, err
			}
			tc := tls.Client(raw, cfg)
			if err := tc.Handshake(); err != nil {
				raw.Close()
				return nil, err
			}
			return tc, nil
		}
	})
}

// Target redirects every dial to a fixed address — the front door of a
// proxy or load balancer — regardless of the address the client asked
// for (which names the service, not the path to it).
func Target(addr string) Hop {
	return HopFunc("target("+addr+")", func(next DialFunc) DialFunc {
		return func(network, _ string) (net.Conn, error) {
			return next(network, addr)
		}
	})
}
