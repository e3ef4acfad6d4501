package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"billcap/internal/api"
)

// capperd's flag defaults at the time the benchmark was written. The stack
// is assembled from the same public constructors cmd/capperd calls, so a
// change to any default or mechanism behind them shows up in the numbers.
const (
	capperdDecideDeadline = 5 * time.Second
	capperdDriftRatio     = 2.0
)

// stack is capperd assembled in process and served over loopback HTTP, with
// one client holding one connection: the routing tier waits for each hour's
// decision, so load is a closed loop.
type stack struct {
	srv    *api.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// startStack builds the server exactly as capperd's main does — api.New,
// SetDriftRatio, EnableTariff before EnableState — over a real state
// directory, and starts serving on an ephemeral loopback port.
func startStack(st *stream, stateDir string) (*stack, error) {
	srv, err := api.New(st.dcs, st.policies, st.coreOptions())
	if err != nil {
		return nil, err
	}
	if err := srv.SetDriftRatio(capperdDriftRatio); err != nil {
		return nil, err
	}
	if st.tariff {
		if err := srv.EnableTariff(demandCharge, batteries(len(st.dcs))); err != nil {
			return nil, err
		}
	}
	if _, err := srv.EnableState(stateDir); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.CloseState()
		return nil, err
	}
	s := &stack{
		srv: srv,
		hs: &http.Server{
			Handler:           srv.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			WriteTimeout:      60 * time.Second,
			IdleTimeout:       120 * time.Second,
		},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops serving, waits for the serve goroutine, and writes the final
// checkpoint as capperd does on shutdown.
func (s *stack) close() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.srv.CloseState(); err == nil {
		err = cerr
	}
	return err
}

// post sends one request and reads the whole answer; rtt covers the client
// round trip from sending the request to holding the last response byte.
func (s *stack) post(path string, body []byte) (status int, resp []byte, rtt time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	r, err := s.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	resp, err = io.ReadAll(r.Body)
	rtt = time.Since(start)
	r.Body.Close()
	return r.StatusCode, resp, rtt, err
}

// getJSON fetches a GET endpoint into v.
func (s *stack) getJSON(path string, v any) error {
	r, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, r.StatusCode)
	}
	return json.NewDecoder(r.Body).Decode(v)
}

// scrape reads the billcap_* series from /metrics.
func (s *stack) scrape() (promSample, error) {
	r, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", r.StatusCode)
	}
	return parseProm(r.Body)
}
