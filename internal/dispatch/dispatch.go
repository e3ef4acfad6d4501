// Package dispatch turns the bill capper's per-site workload fractions into
// an actual request-routing mechanism, modeling the authoritative-DNS
// dispatcher the paper assumes (§III): "the Authoritative Domain Name
// System (DNS) is deployed to take the request dispatcher role by mapping
// the request URL hostname into the IP address of the destined data
// centers", with no inter-site migration once a request is routed.
//
// A Snapshot compiles one capper decision into both halves of that role:
// a deterministic, low-discrepancy weighted routing wheel for per-request
// site assignment, and an admission gate implementing the paper's
// two-class policy (premium requests always pass, ordinary requests pass
// at the capper's admission rate).
package dispatch

// Class labels a request's customer class.
type Class int

// Customer classes (paper §V: premium customers pay; ordinary customers
// enjoy complimentary service).
const (
	Premium Class = iota
	Ordinary
)
