package core

import (
	"fmt"
	"testing"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/fabric"
)

// testOptions keeps deployments fast: tiny scaled links, no client shaping.
func testOptions() Options {
	p := fabric.ACE(0.05) // 50 Mbps DSN links: fast but still shaped
	p.LBSetupCost = 0
	p.RouteLookupLatency = 0
	return Options{Nodes: 3, Profile: p}
}

func roundTrip(t *testing.T, d Deployment) {
	t.Helper()
	const queue = "arch-check"
	prodEp := d.ProducerEndpoint(queue)
	consEp := d.ConsumerEndpoint(queue)

	pc, err := prodEp.Connect()
	if err != nil {
		t.Fatalf("%s producer connect: %v", d.Name(), err)
	}
	defer pc.Close()
	pch, err := pc.Channel()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pch.QueueDeclare(queue, false, false, false, false, nil); err != nil {
		t.Fatal(err)
	}

	cc, err := consEp.Connect()
	if err != nil {
		t.Fatalf("%s consumer connect: %v", d.Name(), err)
	}
	defer cc.Close()
	cch, err := cc.Channel()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cch.QueueDeclare(queue, false, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	dc, err := cch.Consume(queue, "", true, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pch.Publish("", queue, false, false, amqp.Publishing{Body: []byte("arch payload")}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-dc:
		if string(got.Body) != "arch payload" {
			t.Fatalf("%s: body %q", d.Name(), got.Body)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no delivery", d.Name())
	}
}

func TestDeployDTS(t *testing.T) {
	d, err := Deploy(DTS, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Name() != DTS || d.MaxProducerConns() != 0 {
		t.Fatalf("identity: %s %d", d.Name(), d.MaxProducerConns())
	}
	if d.Cluster().Size() != 3 {
		t.Fatalf("cluster size %d", d.Cluster().Size())
	}
	roundTrip(t, d)
}

func TestDeployPRSHAProxy(t *testing.T) {
	d, err := Deploy(PRSHAProxy, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Name() != PRSHAProxy || d.MaxProducerConns() != 0 {
		t.Fatalf("identity: %s %d", d.Name(), d.MaxProducerConns())
	}
	roundTrip(t, d)
}

func TestDeployPRSHAProxy4Conns(t *testing.T) {
	d, err := Deploy(PRSHAProxy4Conns, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Name() != PRSHAProxy4Conns {
		t.Fatalf("name %s", d.Name())
	}
	roundTrip(t, d)
}

// TestDeployPRSControlRound pins PRS set-up to one control round: a 3-node
// deploy opens one control connection to each S2CS (two control TLS
// handshakes, where a session-at-a-time client opened six), every node's
// session relays to its own node, and Deploy returns with each session's
// tunnel pool warm: one tunnel each, four in the 4-conns variant.
func TestDeployPRSControlRound(t *testing.T) {
	for _, c := range []struct {
		name ArchitectureName
		warm int
	}{{PRSHAProxy, 1}, {PRSHAProxy4Conns, 4}} {
		t.Run(string(c.name), func(t *testing.T) {
			dep, err := Deploy(c.name, testOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer dep.Close()
			d := dep.(*prsDeployment)
			if n := d.prodCS.ControlConns() + d.consCS.ControlConns(); n != 2 {
				t.Errorf("%d control connections, want 2 (one per S2CS)", n)
			}
			if len(d.sessions) != d.cl.Size() {
				t.Fatalf("%d sessions for %d nodes", len(d.sessions), d.cl.Size())
			}
			for i, sess := range d.sessions {
				out, ok := d.prodCS.Outbound(sess.UID)
				if !ok {
					t.Fatalf("session %d: no outbound proxy under %q", i, sess.UID)
				}
				if n := out.Idle(); n != c.warm {
					t.Errorf("session %d: %d warm tunnels at Deploy return, want %d", i, n, c.warm)
				}
			}
			for i, sess := range d.sessions {
				conn, err := d.opts.endpoint("amqp://" + sess.ClientAddr).Connect()
				if err != nil {
					t.Fatalf("session %d: %v", i, err)
				}
				ch, err := conn.Channel()
				if err != nil {
					t.Fatal(err)
				}
				q := fmt.Sprintf("control-round-%d", i)
				if _, err := ch.QueueDeclare(q, false, false, false, false, nil); err != nil {
					t.Fatal(err)
				}
				conn.Close()
				for j := 0; j < d.cl.Size(); j++ {
					if _, has := d.cl.Node(j).VHost("/").Queue(q); has != (j == i) {
						t.Errorf("queue declared through session %d: on node %d = %v", i, j, has)
					}
				}
			}
		})
	}
}

func TestDeployPRSStunnel(t *testing.T) {
	d, err := Deploy(PRSStunnel, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.MaxProducerConns() != 16 {
		t.Fatalf("stunnel cap = %d, want 16", d.MaxProducerConns())
	}
	roundTrip(t, d)
}

func TestDeployMSS(t *testing.T) {
	d, err := Deploy(MSS, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Name() != MSS {
		t.Fatalf("name %s", d.Name())
	}
	roundTrip(t, d)
}

func TestDeployMSSBypassLB(t *testing.T) {
	opts := testOptions()
	opts.BypassLB = true
	d, err := Deploy(MSS, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	roundTrip(t, d)
}

func TestDeployUnknown(t *testing.T) {
	if _, err := Deploy("NOPE", testOptions()); err == nil {
		t.Fatal("expected error")
	}
}

func TestQueueMasterAffinity(t *testing.T) {
	d, err := Deploy(DTS, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Producer and consumer endpoints for the same queue must target the
	// same broker node.
	for _, q := range []string{"work-0", "work-1", "reply-3"} {
		p := d.ProducerEndpoint(q)
		c := d.ConsumerEndpoint(q)
		if p.URL != c.URL {
			t.Errorf("queue %s: producer %s != consumer %s", q, p.URL, c.URL)
		}
	}
}

// BenchmarkDeploy prices one deploy-and-close of each architecture on
// unshaped links: for PRS that includes minting its three identities and
// the control round that sets up one SciStream session per node.
func BenchmarkDeploy(b *testing.B) {
	opts := Options{Nodes: 3, Profile: fabric.Profile{Scale: 1, LBWorkers: 16}}
	for _, c := range []struct {
		short string
		name  ArchitectureName
	}{{"DTS", DTS}, {"PRS", PRSHAProxy}, {"MSS", MSS}} {
		b.Run(c.short, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := Deploy(c.name, opts)
				if err != nil {
					b.Fatal(err)
				}
				d.Close()
			}
		})
	}
}
