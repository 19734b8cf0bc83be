// Package mss implements the Managed Service Streaming stack from the
// paper's §2.3/§4.5: a facility-managed hardware load balancer that
// terminates TLS for a stable FQDN, an OpenShift-style ingress hop, a route
// controller mapping hostnames to streaming-service endpoints, and an
// S3M-like HTTP API that provisions broker clusters on demand.
//
// Data path (paper Figure 3c):
//
//	client --TLS(443, SNI=fqdn)--> LoadBalancer --preamble--> Ingress
//	       --route lookup--> broker pod (round-robin)
//
// Both producers and consumers traverse this path, which is why MSS carries
// the highest per-message overhead of the three architectures.
package mss

import (
	"fmt"
	"sync"
	"time"
)

// RouteController maps FQDNs to backend endpoints, the role the OpenShift
// route controller plays for ingress traffic.
type RouteController struct {
	// LookupLatency models per-connection route-resolution work.
	LookupLatency time.Duration

	mu     sync.Mutex
	routes map[string][]string
	rr     map[string]int
}

// NewRouteController creates an empty routing table.
func NewRouteController() *RouteController {
	return &RouteController{routes: map[string][]string{}, rr: map[string]int{}}
}

// Register installs (or replaces) the backends for an FQDN.
func (rc *RouteController) Register(fqdn string, backends []string) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.routes[fqdn] = append([]string(nil), backends...)
	rc.rr[fqdn] = 0
}

// Unregister removes an FQDN.
func (rc *RouteController) Unregister(fqdn string) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	delete(rc.routes, fqdn)
	delete(rc.rr, fqdn)
}

// Resolve picks the next backend for an FQDN round-robin.
func (rc *RouteController) Resolve(fqdn string) (string, error) {
	if rc.LookupLatency > 0 {
		time.Sleep(rc.LookupLatency)
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	backends := rc.routes[fqdn]
	if len(backends) == 0 {
		return "", fmt.Errorf("mss: no route for %q", fqdn)
	}
	i := rc.rr[fqdn] % len(backends)
	rc.rr[fqdn]++
	return backends[i], nil
}
