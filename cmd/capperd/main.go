// Command capperd serves the bill capper as a JSON HTTP control API — what
// a production request-routing tier would call once per invocation period
// (paper §III).
//
// Usage:
//
//	capperd -addr :8080 -variant 1
//
// Endpoints: GET /healthz, GET /readyz, GET /metrics, GET /debug/pprof/,
// GET /v1/sites, GET /v1/policies, POST /v1/decide, POST /v1/decide/batch,
// POST /v1/realize, POST /v1/model, POST /v1/route, POST /v1/route/batch,
// GET /v1/route/table and GET /v1/tariff.
// Example:
//
//	curl -s localhost:8080/v1/decide -d '{
//	  "totalLambda": 1.5e12, "premiumLambda": 1.2e12,
//	  "demandMW": [170, 190, 150], "budgetUSD": 900
//	}'
//
// The daemon exports Prometheus metrics on /metrics, runtime profiling on
// /debug/pprof/, and on SIGINT/SIGTERM flips /readyz to 503 and drains
// in-flight decisions before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"billcap/internal/api"
	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/pricing"
)

// parseBattery reads the -battery flag: capMWh:maxMW:eff with optional
// :socMWh and :valueUSDPerMWh suffixes. The max charge and discharge rates
// share one figure, matching symmetric grid-scale packs.
func parseBattery(s string) (core.BatterySpec, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 3 || len(parts) > 5 {
		return core.BatterySpec{}, fmt.Errorf("want capMWh:maxMW:eff[:socMWh[:valueUSDPerMWh]], got %q", s)
	}
	vals := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return core.BatterySpec{}, fmt.Errorf("field %d of %q: %v", i+1, s, err)
		}
		vals[i] = v
	}
	spec := core.BatterySpec{
		CapacityMWh:    vals[0],
		MaxChargeMW:    vals[1],
		MaxDischargeMW: vals[1],
		Efficiency:     vals[2],
	}
	if len(vals) > 3 {
		spec.SoCMWh = vals[3]
	}
	if len(vals) > 4 {
		spec.ValueUSDPerMWh = vals[4]
	}
	return spec, nil
}

// config is capperd's command line.
type config struct {
	addr         string
	variant      int
	sites        int
	drain        time.Duration
	deadline     time.Duration
	decompose    bool
	stateDir     string
	driftRatio   float64
	demandCharge float64
	battery      string
}

// flags registers capperd's command-line flags, bound to cfg. README's flag
// table mirrors this list (TestREADMEFlagTableMatchesFlags).
func flags(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("capperd", flag.ExitOnError)
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.variant, "variant", 1, "pricing policy variant (0-3)")
	fs.IntVar(&cfg.sites, "sites", 3, "number of data centers (3 = the paper's; more = synthetic)")
	fs.DurationVar(&cfg.drain, "drain", 10*time.Second, "graceful shutdown timeout for in-flight requests")
	fs.DurationVar(&cfg.deadline, "decide-deadline", 5*time.Second,
		"per-decision solver deadline; an expiring solve answers with its best incumbent (0 = unbounded)")
	fs.BoolVar(&cfg.decompose, "decompose", false,
		"fleet-scale solving: route hour decisions through Lagrangian dual decomposition when the fleet exceeds 20 sites")
	fs.StringVar(&cfg.stateDir, "state-dir", "",
		"directory for crash-safe state (WAL + snapshots): every decide that moves the degradation ladder or the billing position is durably logged, and a restart restores both instead of zeroing them (empty = stateless)")
	fs.Float64Var(&cfg.driftRatio, "drift-ratio", 2.0,
		"observed/predicted arrival ratio beyond which the data plane re-solves asynchronously and swaps the routing table (must be > 1; 0 disables drift re-solves)")
	fs.Float64Var(&cfg.demandCharge, "demand-charge", 0,
		"billing-period demand charge in $/MW-month, billed on each site's peak metered draw")
	fs.StringVar(&cfg.battery, "battery", "",
		"per-site battery as capMWh:maxMW:eff[:socMWh[:valueUSDPerMWh]], e.g. 40:15:0.9 — the same spec at every site")
	return fs
}

func main() {
	var cfg config
	_ = flags(&cfg).Parse(os.Args[1:]) // ExitOnError: Parse exits on a bad flag

	if cfg.variant < 0 || cfg.variant > 3 {
		log.Fatal("capperd: variant must be 0..3")
	}
	var dcs []*dcmodel.Site
	var pols []pricing.Policy
	if cfg.sites == 3 {
		dcs = dcmodel.PaperSites()
		pols = pricing.PaperPolicies(pricing.PolicyVariant(cfg.variant))
	} else {
		dcs = dcmodel.SyntheticSites(cfg.sites)
		pols = pricing.Synthetic(cfg.sites)
	}
	srv, err := api.New(dcs, pols, core.Options{
		SolveDeadline: cfg.deadline,
		Decompose:     cfg.decompose,
	})
	if err != nil {
		log.Fatalf("capperd: %v", err)
	}
	if err := srv.SetDriftRatio(cfg.driftRatio); err != nil {
		log.Fatalf("capperd: %v", err)
	}
	if cfg.demandCharge > 0 || cfg.battery != "" {
		var specs []core.BatterySpec
		if cfg.battery != "" {
			spec, err := parseBattery(cfg.battery)
			if err != nil {
				log.Fatalf("capperd: -battery: %v", err)
			}
			specs = make([]core.BatterySpec, len(dcs))
			for i := range specs {
				specs[i] = spec
			}
		}
		// Enable before EnableState so a restart restores the peak ledger
		// and battery charge into the live tariff position.
		if err := srv.EnableTariff(cfg.demandCharge, specs); err != nil {
			log.Fatalf("capperd: tariff: %v", err)
		}
	}
	if cfg.stateDir != "" {
		info, err := srv.EnableState(cfg.stateDir)
		if err != nil {
			log.Fatalf("capperd: state: %v", err)
		}
		if info.Restored {
			log.Printf("capperd: restored state from %s: hour cursor %d, %d WAL entries replayed, %d WAL corruptions truncated, %d snapshot fallbacks",
				cfg.stateDir, info.Hour, info.WALEntriesReplayed, info.WALCorruptions, info.SnapshotFallbacks)
		} else {
			log.Printf("capperd: fresh state directory %s", cfg.stateDir)
		}
	}
	hs := &http.Server{
		Handler: srv.Handler(),
		// Bound every phase of a connection so a slow or stalled client
		// cannot pin a decision worker: header trickling (Slowloris) dies at
		// ReadHeaderTimeout, a stalled body at ReadTimeout, and idle
		// keep-alives are reaped by IdleTimeout.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		// Long enough for /debug/pprof/profile's default 30 s CPU window.
		WriteTimeout: 60 * time.Second,
		IdleTimeout:  120 * time.Second,
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		log.Fatalf("capperd: listen: %v", err)
	}
	log.Printf("capperd: %d sites, %v, listening on %s", len(dcs), pricing.PolicyVariant(cfg.variant), ln.Addr())
	log.Printf("capperd: timeouts: readHeader=%v read=%v write=%v idle=%v decide=%v drain=%v",
		hs.ReadHeaderTimeout, hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout, cfg.deadline, cfg.drain)
	if cfg.driftRatio > 0 {
		log.Printf("capperd: data plane: /v1/route live, drift re-solve at %.2f× predicted arrivals", cfg.driftRatio)
	} else {
		log.Printf("capperd: data plane: /v1/route live, drift re-solve disabled")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		log.Fatalf("capperd: serve: %v", err)
	case <-ctx.Done():
		stop()                // restore default signal handling: a second ^C kills immediately
		srv.SetDraining(true) // /readyz → 503 so load balancers stop sending work
		log.Printf("capperd: shutdown signal, draining for up to %v", cfg.drain)
		sctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("capperd: drain timed out: %v", err)
			_ = hs.Close()
			if cerr := srv.CloseState(); cerr != nil {
				log.Printf("capperd: state close: %v", cerr)
			}
			os.Exit(1)
		}
		if err := srv.CloseState(); err != nil {
			log.Printf("capperd: state close: %v", err)
		}
		log.Printf("capperd: drained, bye")
	}
}
