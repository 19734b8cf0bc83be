package core

import (
	"errors"
	"fmt"
	"sync"

	"ds2hpc/internal/broker"
	"ds2hpc/internal/cluster"
	"ds2hpc/internal/scistream"
	"ds2hpc/internal/tlsutil"
)

// prsDeployment routes producers through SciStream: producer → outbound
// S2DS on the producer-facility gateway → TLS overlay tunnel → inbound S2DS
// on the HPC gateway → broker node. One session is created per broker node
// so producers keep queue-master affinity (the paper's S2DS exposes a port
// range, 5100-5110, for the same reason). Consumers are inside the HPC
// facility and attach directly via NodePort, per Figure 3b.
//
// Matching §4.4, the broker speaks plain AMQP: SciStream's tunnel already
// provides TLS, so broker-side encryption would be redundant.
type prsDeployment struct {
	opts     Options
	name     ArchitectureName
	tunnel   scistream.Tunnel
	cl       *cluster.Cluster
	prodCS   *scistream.S2CS
	consCS   *scistream.S2CS
	sessions []*scistream.Session // one per broker node
}

// DeployPRS starts the Proxied Streaming architecture with the given
// tunnel driver and parallel-connection count.
func DeployPRS(opts Options, tunnel scistream.Tunnel, numConn int) (Deployment, error) {
	opts.defaults()
	// PRS brokers speak plain AMQP (the SciStream tunnel carries TLS), so
	// federation links between nodes ride plain TCP.
	cl, err := cluster.StartWithOptions(opts.Nodes, cluster.Options{Federation: opts.Federation, ReplicationFactor: opts.ReplicationFactor}, func(i int) broker.Config {
		return broker.Config{
			Link:        opts.Profile.DSNLink(fmt.Sprintf("dsn-%d", i)),
			MemoryLimit: opts.MemoryLimit,
			DataDir:     opts.DataDir,
			Durability:  opts.Durability,
		}
	})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (Deployment, error) {
		cl.Close()
		return nil, err
	}

	// Each S2CS generates its own self-signed certificate on startup;
	// the tunnel identity is shared so both S2DS peers trust each other.
	// The three are independent, so they are minted concurrently.
	var ids [3]*tlsutil.Identity
	var idErrs [3]error
	var minting sync.WaitGroup
	for i, cn := range []string{"s2ds-tunnel", "prod-s2cs", "cons-s2cs"} {
		minting.Add(1)
		go func() {
			defer minting.Done()
			ids[i], idErrs[i] = tlsutil.SelfSigned(cn, "127.0.0.1")
		}()
	}
	minting.Wait()
	if err := errors.Join(idErrs[:]...); err != nil {
		return fail(err)
	}
	tunnelID, prodID, consID := ids[0], ids[1], ids[2]

	wan := opts.Profile.WANLink("overlay-wan")
	prodCS, err := scistream.NewS2CS(scistream.S2CSConfig{
		Identity:       prodID,
		TunnelIdentity: tunnelID,
		ServerName:     "127.0.0.1",
		WANLink:        wan,
		ProcLink:       opts.Profile.ProxyProcLink("ps2ds-proc"),
		TunnelFlowRate: opts.Profile.TunnelFlowBps,
	})
	if err != nil {
		return fail(err)
	}
	consCS, err := scistream.NewS2CS(scistream.S2CSConfig{
		Identity:       consID,
		TunnelIdentity: tunnelID,
		ServerName:     "127.0.0.1",
		WANLink:        wan,
		ProcLink:       opts.Profile.ProxyProcLink("cs2ds-proc"),
		TunnelFlowRate: opts.Profile.TunnelFlowBps,
	})
	if err != nil {
		prodCS.Close()
		return fail(err)
	}

	d := &prsDeployment{
		opts:   opts,
		tunnel: tunnel,
		cl:     cl,
		prodCS: prodCS,
		consCS: consCS,
	}
	switch {
	case tunnel == scistream.TunnelStunnel:
		d.name = PRSStunnel
	case numConn > 1:
		d.name = PRSHAProxy4Conns
	default:
		d.name = PRSHAProxy
	}

	// One session per broker node for queue-master affinity, all created
	// in one control round.
	reqs := make([]scistream.SessionRequest, cl.Size())
	for i := range reqs {
		reqs[i] = scistream.SessionRequest{
			ProducerS2CS: prodCS.Addr(),
			ConsumerS2CS: consCS.Addr(),
			ProducerCert: prodID.CertPEM,
			ConsumerCert: consID.CertPEM,
			Targets:      []string{cl.Node(i).Addr()},
			Tunnel:       tunnel,
			NumConn:      numConn,
		}
	}
	uc := &scistream.S2UC{}
	if d.sessions, err = uc.CreateSessions(reqs); err != nil {
		d.Close()
		return nil, fmt.Errorf("core: prs sessions: %w", err)
	}
	return d, nil
}

func (d *prsDeployment) Name() ArchitectureName    { return d.name }
func (d *prsDeployment) Cluster() *cluster.Cluster { return d.cl }
func (d *prsDeployment) Durable() bool             { return d.opts.DataDir != "" }

// MaxProducerConns reports the Stunnel concurrent-stream ceiling. The cap
// applies per shared tunnel; sessions to different nodes have independent
// tunnels, but the paper's work-sharing workload concentrates producers on
// two shared queues, so the per-tunnel limit is the binding one.
func (d *prsDeployment) MaxProducerConns() int {
	if d.tunnel == scistream.TunnelStunnel {
		return scistream.StunnelMaxStreams
	}
	return 0
}

func (d *prsDeployment) Close() error {
	if d.prodCS != nil {
		d.prodCS.Close()
	}
	if d.consCS != nil {
		d.consCS.Close()
	}
	return d.cl.Close()
}

// ProducerEndpoint composes the producer half of Figure 3b: client NIC
// link into the SciStream session whose target is the queue's master node
// (the S2DS pair and TLS overlay tunnel relay from there).
func (d *prsDeployment) ProducerEndpoint(queue string) Endpoint {
	sess := d.sessions[d.cl.OwnerOf(queue)]
	return d.opts.endpoint("amqp://" + sess.ClientAddr)
}

// ConsumerEndpoint attaches directly to the queue's master node (consumers
// are facility-internal in the PRS deployment), so with federation on it
// carries the node address list as reconnect seeds. Producer endpoints
// dial SciStream session addresses and do not rotate — the paper's S2DS
// sessions are pinned per target node.
func (d *prsDeployment) ConsumerEndpoint(queue string) Endpoint {
	e := d.opts.endpoint("amqp://" + d.cl.AddrFor(queue))
	if d.opts.Federation {
		e.Seeds = d.cl.Addrs()
	}
	return e
}
