package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"time"

	proxrank "repro"
	"repro/internal/shardrpc"
	"repro/service"
)

// deployment is one running system under test: a single node, or a
// coordinator in front of in-process shard servers, serving HTTP on a
// loopback port.
type deployment struct {
	url   string
	cat   *service.Catalog // the catalog queries resolve against
	exec  *service.Executor
	fleet *shardrpc.Fleet // coordinator deployments only
	// admit holds the time of every RegisterSharded call the set-up
	// made; discover the time of Fleet.Discover.
	admit    []time.Duration
	discover time.Duration
	client   *http.Client
	stops    []func()
}

func (d *deployment) stop() {
	d.client.CloseIdleConnections()
	for i := len(d.stops) - 1; i >= 0; i-- {
		d.stops[i]()
	}
}

// deploy starts the system for w over rels and returns once it is
// ready: its HTTP readiness probe answered 200.
func deploy(w workload, rels []*proxrank.Relation) (*deployment, error) {
	d := &deployment{client: newClient(w.clients)}
	var err error
	if w.coord {
		err = d.startCoord(rels)
	} else {
		d.cat = service.NewCatalog()
		err = d.admitAll(d.cat, rels, 0, proxrank.HashPartition)
		if err == nil {
			d.exec = service.NewExecutor(d.cat, service.Config{})
			err = d.serveHTTP(service.NewServer(d.cat, d.exec))
		}
	}
	if err == nil {
		err = d.ready()
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// admitAll registers every relation, timing each admission.
func (d *deployment) admitAll(cat *service.Catalog, rels []*proxrank.Relation, shards int, strategy proxrank.PartitionStrategy) error {
	for _, rel := range rels {
		t0 := time.Now()
		if err := cat.RegisterSharded(rel.Name, rel, shards, strategy); err != nil {
			return fmt.Errorf("admit %s: %w", rel.Name, err)
		}
		d.admit = append(d.admit, time.Since(t0))
	}
	return nil
}

// startCoord is the deployment of proxload -topology coord:2: every
// shard server holds all relations in coordShards grid shards and owns
// every coordServers-th shard; the coordinator discovers the fleet and
// serves HTTP.
func (d *deployment) startCoord(rels []*proxrank.Relation) error {
	addrs := make([]string, coordServers)
	for i := range addrs {
		cat := service.NewCatalog()
		if err := d.admitAll(cat, rels, coordShards, proxrank.GridPartition); err != nil {
			return err
		}
		exec := service.NewExecutor(cat, service.Config{})
		backend := service.NewShardBackend(cat, exec, service.Ownership{Index: i, Count: coordServers, Replicas: 1})
		srv := shardrpc.NewServer(backend)
		bound, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("shard server %d: %w", i, err)
		}
		d.stops = append(d.stops, srv.Close)
		backend.SetName(bound.String())
		addrs[i] = bound.String()
	}
	d.fleet = shardrpc.NewFleet(addrs)
	d.stops = append(d.stops, d.fleet.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	t0 := time.Now()
	remotes, err := d.fleet.Discover(ctx)
	d.discover = time.Since(t0)
	if err != nil {
		return fmt.Errorf("discover: %w", err)
	}
	names := make([]string, 0, len(remotes))
	for name := range remotes {
		names = append(names, name)
	}
	sort.Strings(names)
	d.cat = service.NewCatalog()
	for _, name := range names {
		if err := d.cat.RegisterRemote(name, remotes[name]); err != nil {
			return fmt.Errorf("register remote %s: %w", name, err)
		}
	}
	d.exec = service.NewExecutor(d.cat, service.Config{})
	srv := service.NewServer(d.cat, d.exec)
	srv.AttachFleet(d.fleet)
	return d.serveHTTP(srv)
}

func (d *deployment) serveHTTP(srv *service.Server) error {
	url, stop, err := serve(srv.Handler())
	if err != nil {
		return err
	}
	d.url = url
	d.stops = append(d.stops, stop)
	return nil
}

// serve runs h on a fresh loopback port and returns its base URL and a
// stop func that returns once the server has shut down.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed once stop runs
	}()
	stop := func() {
		_ = srv.Close()
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// ready polls GET /v1/readyz until it answers 200. Admission is
// synchronous, so the first probe normally succeeds; the loop spins
// without sleeping so that set-up time is never rounded up to a poll
// interval.
func (d *deployment) ready() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.client.Get(d.url + "/v1/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready after 10s (last error %v)", err)
		}
	}
}

// clientTimeout bounds every request of the closed loop.
const clientTimeout = 60 * time.Second

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: clientTimeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns + 1,
			DisableCompression:  true,
		},
	}
}

// setUp deploys reps times, timing each from the first admission until
// the readiness probe answers, and keeps the last deployment running.
// It returns that deployment and every deployment's set-up, admission
// and discovery times. Each set-up starts on a collected heap, so that
// the garbage of the one before does not land in its time.
func setUp(w workload, rels []*proxrank.Relation, reps int) (*deployment, setupTimes, error) {
	var st setupTimes
	var d *deployment
	for i := 0; i < reps; i++ {
		if d != nil {
			d.stop()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		d, err = deploy(w, rels)
		if err != nil {
			return nil, st, err
		}
		st.total = append(st.total, seconds(time.Since(t0)))
		for _, a := range d.admit {
			st.admitMs = append(st.admitMs, ms(a))
		}
		if w.coord {
			st.discoverMs = append(st.discoverMs, ms(d.discover))
		}
	}
	return d, st, nil
}

type setupTimes struct {
	total      []float64 // seconds per deployment
	admitMs    []float64 // per RegisterSharded call
	discoverMs []float64
}
