package mss

import (
	"bytes"
	"crypto/tls"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker"
	"ds2hpc/internal/tlsutil"
	"ds2hpc/internal/transport"
)

func TestRouteControllerRoundRobin(t *testing.T) {
	rc := NewRouteController()
	rc.Register("svc.local", []string{"a:1", "b:2"})
	got := map[string]int{}
	for i := 0; i < 4; i++ {
		b, err := rc.Resolve("svc.local")
		if err != nil {
			t.Fatal(err)
		}
		got[b]++
	}
	if got["a:1"] != 2 || got["b:2"] != 2 {
		t.Fatalf("distribution %v", got)
	}
	if _, err := rc.Resolve("missing.local"); err == nil {
		t.Fatal("expected error for unknown route")
	}
	rc.Unregister("svc.local")
	if _, err := rc.Resolve("svc.local"); err == nil {
		t.Fatal("expected error after unregister")
	}
}

func TestRouteControllerLookupLatency(t *testing.T) {
	rc := NewRouteController()
	rc.LookupLatency = 20 * time.Millisecond
	rc.Register("s", []string{"x:1"})
	start := time.Now()
	rc.Resolve("s")
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Errorf("lookup took %v, want >= 20ms", el)
	}
}

// startStack brings up echo backend + ingress + LB and returns the LB
// address, the FQDN, and the client TLS config.
func startStack(t *testing.T, lbWorkers int) (lbAddr, fqdn string, clientTLS *tls.Config) {
	t.Helper()
	// Echo backend standing in for a broker pod.
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { backend.Close() })
	go func() {
		for {
			c, err := backend.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }()
		}
	}()

	fqdn = "rabbitmq-1.apps.olivine.local"
	rc := NewRouteController()
	rc.Register(fqdn, []string{backend.Addr().String()})

	ing, err := NewIngress(IngressConfig{Routes: rc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ing.Close() })

	id, err := tlsutil.SelfSigned("lb", "127.0.0.1", "*.apps.olivine.local")
	if err != nil {
		t.Fatal(err)
	}
	lb, err := NewLoadBalancer(LBConfig{
		Identity:    id,
		IngressAddr: ing.Addr(),
		Workers:     lbWorkers,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lb.Close() })
	return lb.Addr(), fqdn, id.ClientConfig(fqdn)
}

func TestLBIngressDataPath(t *testing.T) {
	lbAddr, fqdn, clientTLS := startStack(t, 4)
	dial := transport.Path(FrontDoor(lbAddr, fqdn, clientTLS)).Dial()
	c, err := dial("tcp", "ignored:443")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := []byte("fqdn routed bytes")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("echo mismatch %q", buf)
	}
}

func TestLBUnknownFQDNDropsConnection(t *testing.T) {
	lbAddr, _, clientTLS := startStack(t, 4)
	cfg := clientTLS.Clone()
	cfg.ServerName = "nope.apps.olivine.local"
	dial := transport.Path(FrontDoor(lbAddr, "nope.apps.olivine.local", cfg)).Dial()
	c, err := dial("tcp", "ignored:443")
	if err != nil {
		// TLS fails only if the cert does not cover the name; wildcard
		// covers it, so we expect the connection to open then die.
		return
	}
	defer c.Close()
	c.Write([]byte("x"))
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("expected unroutable connection to be dropped")
	}
}

func TestLBWorkerPoolQueues(t *testing.T) {
	// With a single worker and 50 ms setup cost, 5 concurrent dials must
	// accumulate queue wait.
	backend, _ := net.Listen("tcp", "127.0.0.1:0")
	defer backend.Close()
	go func() {
		for {
			c, err := backend.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }()
		}
	}()
	fqdn := "q.apps.olivine.local"
	rc := NewRouteController()
	rc.Register(fqdn, []string{backend.Addr().String()})
	ing, _ := NewIngress(IngressConfig{Routes: rc})
	defer ing.Close()
	id, _ := tlsutil.SelfSigned("lb", "127.0.0.1", "*.apps.olivine.local")
	lb, err := NewLoadBalancer(LBConfig{
		Identity:    id,
		IngressAddr: ing.Addr(),
		Workers:     1,
		SetupCost:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	done := make(chan error, 5)
	for i := 0; i < 5; i++ {
		go func() {
			dial := transport.Path(FrontDoor(lb.Addr(), fqdn, id.ClientConfig(fqdn))).Dial()
			c, err := dial("tcp", "x:443")
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			c.Write([]byte("z"))
			buf := make([]byte, 1)
			_, err = io.ReadFull(c, buf)
			done <- err
		}()
	}
	for i := 0; i < 5; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if w := lb.admission.QueueWait(); w < 50*time.Millisecond {
		t.Errorf("queue wait = %v; expected visible queueing with 1 worker", w)
	}
	if n := lb.relayed.Load(); n != 5 {
		t.Errorf("relayed = %d, want 5", n)
	}
}

func TestS3MProvisionAndStream(t *testing.T) {
	rc := NewRouteController()
	ing, err := NewIngress(IngressConfig{Routes: rc})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	id, _ := tlsutil.SelfSigned("lb", "127.0.0.1", "*.apps.olivine.local")
	lb, err := NewLoadBalancer(LBConfig{Identity: id, IngressAddr: ing.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	s3m, err := NewS3M(S3MConfig{
		Token:  "TOKEN",
		Routes: rc,
		LBAddr: lb.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s3m.Close()

	// Provision a 3-node cluster through the API, exactly as §4.5.
	body, _ := json.Marshal(ProvisionRequest{
		Kind: "general", Name: "rabbitmq",
		ResourceSettings: ResourceSettings{CPUs: 12, RAMGBs: 32, Nodes: 3, MaxMsgSize: 536870912},
	})
	req, _ := http.NewRequest("POST",
		"http://"+s3m.Addr()+"/olcf/v1alpha/streaming/rabbitmq/provision_cluster",
		bytes.NewReader(body))
	req.Header.Set("Authorization", "TOKEN")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("provision status %d", resp.StatusCode)
	}
	var pr ProvisionResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.FQDN == "" || pr.URL == "" {
		t.Fatalf("empty response %+v", pr)
	}
	c, ok := s3m.Cluster(pr.FQDN)
	if !ok || c.Size() != 3 {
		t.Fatalf("cluster not provisioned: ok=%v", ok)
	}

	// Stream AMQP through LB -> ingress -> provisioned broker.
	dial := transport.Path(FrontDoor(lb.Addr(), pr.FQDN, id.ClientConfig(pr.FQDN))).Dial()
	conn, err := amqp.DialConfig("amqp://mss-front-door", amqp.Config{Dial: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ch, err := conn.Channel()
	if err != nil {
		t.Fatal(err)
	}
	q, err := ch.QueueDeclare("mss-q", false, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := ch.Consume(q.Name, "", true, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Publish("", q.Name, false, false, amqp.Publishing{Body: []byte("managed")}); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-dc:
		if string(d.Body) != "managed" {
			t.Fatalf("got %q", d.Body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery through MSS path")
	}
}

func TestS3MAuth(t *testing.T) {
	rc := NewRouteController()
	s3m, err := NewS3M(S3MConfig{Token: "SECRET", Routes: rc, BrokerConfig: broker.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s3m.Close()
	body, _ := json.Marshal(ProvisionRequest{Name: "r"})
	req, _ := http.NewRequest("POST",
		"http://"+s3m.Addr()+"/olcf/v1alpha/streaming/rabbitmq/provision_cluster",
		bytes.NewReader(body))
	req.Header.Set("Authorization", "WRONG")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status = %d, want 401", resp.StatusCode)
	}
}

func TestS3MDeprovision(t *testing.T) {
	rc := NewRouteController()
	s3m, err := NewS3M(S3MConfig{Routes: rc})
	if err != nil {
		t.Fatal(err)
	}
	defer s3m.Close()
	body, _ := json.Marshal(ProvisionRequest{Name: "r", ResourceSettings: ResourceSettings{Nodes: 1}})
	resp, err := http.Post(
		"http://"+s3m.Addr()+"/olcf/v1alpha/streaming/rabbitmq/provision_cluster",
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pr ProvisionResponse
	json.NewDecoder(resp.Body).Decode(&pr)
	resp.Body.Close()

	dbody := []byte(fmt.Sprintf(`{"fqdn":%q}`, pr.FQDN))
	resp2, err := http.Post(
		"http://"+s3m.Addr()+"/olcf/v1alpha/streaming/rabbitmq/deprovision_cluster",
		"application/json", bytes.NewReader(dbody))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("deprovision status %d", resp2.StatusCode)
	}
	if _, ok := s3m.Cluster(pr.FQDN); ok {
		t.Fatal("cluster survived deprovision")
	}
}
