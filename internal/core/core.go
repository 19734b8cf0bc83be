// Package core composes the substrates (broker cluster, netem fabric,
// SciStream proxies, MSS stack) into the three cross-facility data
// streaming architectures the paper investigates:
//
//   - DTS (Direct Streaming): clients connect to node-exposed AMQPS ports
//     on the broker cluster — the minimal-hop baseline.
//   - PRS (Proxied Streaming): producers connect through SciStream S2DS
//     proxies and a TLS overlay tunnel; consumers, being inside the HPC
//     facility, attach directly to the service (paper Figure 3b).
//   - MSS (Managed Service Streaming): both producers and consumers
//     connect to a facility-managed FQDN that terminates at a load
//     balancer and is routed by an ingress controller (Figure 3c).
//
// Each deployment exposes per-queue endpoints so clients attach to the
// master node of their queue, and reports connection-feasibility limits
// (the Stunnel 16-connection ceiling from §5.3).
package core

import (
	"fmt"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker/seglog"
	"ds2hpc/internal/cluster"
	"ds2hpc/internal/fabric"
	"ds2hpc/internal/scistream"
	"ds2hpc/internal/transport"
)

// ArchitectureName identifies one of the studied architectures.
type ArchitectureName string

// The architectures under study, with the PRS tunnel variants evaluated in
// the paper's figures.
const (
	DTS              ArchitectureName = "DTS"
	PRSStunnel       ArchitectureName = "PRS(Stunnel)"
	PRSHAProxy       ArchitectureName = "PRS(HAProxy)"
	PRSHAProxy4Conns ArchitectureName = "PRS(HAProxy,4conns)"
	MSS              ArchitectureName = "MSS"
)

// AllArchitectures lists every variant in figure order.
var AllArchitectures = []ArchitectureName{DTS, PRSStunnel, PRSHAProxy, PRSHAProxy4Conns, MSS}

// Options configure a deployment.
type Options struct {
	// Nodes is the broker cluster size (default 3, as deployed on DSNs).
	Nodes int
	// Profile is the emulated network capacity plan.
	Profile fabric.Profile
	// MemoryLimit bounds ready bytes per broker vhost; zero uses 512 MiB
	// scaled by the profile (80% payload reservation is applied by the
	// caller when modeling the paper's RAM split).
	MemoryLimit int64
	// DisableClientShaping turns off per-connection client NIC links
	// (useful for pure-protocol unit tests).
	DisableClientShaping bool
	// BypassLB, for MSS only, lets consumers inside the facility skip
	// the load balancer and dial broker pods directly — the improvement
	// proposed in the paper's §6 discussion.
	BypassLB bool
	// Faults, when set, is composed as the outermost hop of every client
	// connection path, so scripted WAN failures (link flaps, resets,
	// partitions, latency spikes) hit all clients of the deployment.
	Faults *transport.Injector
	// Reconnect, when set, enables bounded client auto-reconnect (with
	// unconfirmed-publish replay) on every endpoint the deployment hands
	// out, letting runs survive injected path faults.
	Reconnect *amqp.ReconnectPolicy
	// DataDir enables durable queue storage on every broker node; each
	// node writes under its own subdirectory, so a crashed node recovers
	// exactly its own queues on restart. Empty keeps all queues in memory.
	DataDir string
	// Durability tunes the per-queue segment logs when DataDir is set.
	Durability seglog.Options
	// Federation enables the clustered data plane: every broker node
	// carries a cluster hook, so declares and default-exchange publishes
	// for remotely-mastered queues are federated to their master node and
	// mis-routed consumers are redirected (connection.close 302) to it.
	// Endpoints that dial node addresses directly additionally carry the
	// full node address list as reconnect seeds, which is what lets
	// clients survive a queue-master kill (node-kill fault scripts).
	// Off, the nodes are independent brokers that only share
	// deterministic placement.
	Federation bool
	// ReplicationFactor R >= 2 gives every durable queue R-1 synchronous
	// mirrors on distinct cluster nodes: producer confirms wait for the
	// gating mirrors, and a queue-master kill promotes an in-sync mirror
	// instead of relocating segment logs (and relocates without one).
	// Requires Federation and DataDir.
	ReplicationFactor int
}

func (o *Options) defaults() {
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Profile.Scale == 0 {
		o.Profile = fabric.ACE(1.0)
	}
	if o.MemoryLimit == 0 {
		o.MemoryLimit = 512 << 20
	}
}

// Endpoint is a ready-to-dial AMQP endpoint for one queue. The Path is
// the architecture's client→service hop chain (Figure 3a–c); every
// deployment dials exclusively through it.
type Endpoint struct {
	// URL is the amqp:// URL to dial. TLS-originate hops live in Path,
	// so the URL scheme stays amqp even for TLS-fronted architectures.
	URL string
	// Path is the ordered hop chain between the client and the service.
	Path transport.Path
	// Reconnect, when non-nil, enables client auto-reconnect.
	Reconnect *amqp.ReconnectPolicy
	// Seeds lists alternative broker addresses a reconnecting client
	// rotates through when its current target stops answering dials
	// (federated clusters hand out the full node address list).
	Seeds []string
}

// Config builds the AMQP client configuration for this endpoint.
func (e Endpoint) Config() amqp.Config {
	return amqp.Config{Dial: e.Path.Dial(), Reconnect: e.Reconnect, Seeds: e.Seeds}
}

// Connect opens an AMQP connection through the endpoint's hop chain.
func (e Endpoint) Connect() (*amqp.Connection, error) {
	return amqp.DialConfig(e.URL, e.Config())
}

// Deployment is a running architecture instance.
type Deployment interface {
	// Name reports which architecture variant this is.
	Name() ArchitectureName
	// ProducerEndpoint returns the endpoint a producer should use to
	// publish to the given queue.
	ProducerEndpoint(queue string) Endpoint
	// ConsumerEndpoint returns the endpoint a consumer should use to
	// consume from the given queue.
	ConsumerEndpoint(queue string) Endpoint
	// Cluster exposes the underlying broker cluster.
	Cluster() *cluster.Cluster
	// MaxProducerConns reports the architecture's concurrent producer
	// connection ceiling; zero means unlimited. PRS with Stunnel is
	// capped at 16 (§5.3).
	MaxProducerConns() int
	// Durable reports whether the deployment's brokers persist durable
	// queues to disk (Options.DataDir set) — required by replay patterns
	// and crash-restart fault scripts.
	Durable() bool
	// Close tears the deployment down.
	Close() error
}

// Deploy builds the named architecture.
func Deploy(name ArchitectureName, opts Options) (Deployment, error) {
	opts.defaults()
	switch name {
	case DTS:
		return DeployDTS(opts)
	case PRSStunnel:
		return DeployPRS(opts, scistream.TunnelStunnel, 1)
	case PRSHAProxy:
		return DeployPRS(opts, scistream.TunnelHAProxy, 1)
	case PRSHAProxy4Conns:
		return DeployPRS(opts, scistream.TunnelHAProxy, 4)
	case MSS:
		return DeployMSS(opts)
	default:
		return nil, fmt.Errorf("core: unknown architecture %q", name)
	}
}

// clientPath builds a client connection path: the optional fault injector
// first (the facility-spanning WAN segment where outages strike), then a
// per-connection client NIC link (an Andes node's 1 Gbps interface), then
// the architecture-specific hops.
func (o Options) clientPath(hops ...transport.Hop) transport.Path {
	var p transport.Path
	if o.Faults != nil {
		p = append(p, o.Faults.Hop())
	}
	if !o.DisableClientShaping {
		p = append(p, transport.Link(o.Profile.ClientLink("andes-nic")))
	}
	return append(p, hops...)
}

// endpoint assembles an Endpoint over the options' client path.
func (o Options) endpoint(url string, hops ...transport.Hop) Endpoint {
	return Endpoint{URL: url, Path: o.clientPath(hops...), Reconnect: o.Reconnect}
}
