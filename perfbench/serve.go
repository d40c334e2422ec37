package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"mcdc"
	"mcdc/client"
	"mcdc/internal/hashring"
	"mcdc/internal/model"
	"mcdc/internal/server"
)

const modelName = "bench"

// fleet is an in-process gateway in front of two replicating backends, each
// checkpointing to its own state dir, plus one keep-alive client per
// benchmark client.
type fleet struct {
	dir      string
	backends []*backend
	gw       *server.Gateway
	gwHTTP   *http.Server
	gwDone   chan struct{}
	gwTr     *http.Transport // gateway → backends
	clients  []*client.Client
	clientTr []*http.Transport
	placed   bool // the backend ports give the intended key placement
}

type backend struct {
	srv  *server.Server
	http *http.Server
	addr string
	done chan struct{}
}

// serveOn serves h on ln until the server closes.
func serveOn(ln net.Listener, h http.Handler) (*http.Server, chan struct{}) {
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return hs, done
}

// placement reports whether a ring over the backend addresses places the
// workload's keys as intended.
type placement func(ring *hashring.Ring, addrs []string) bool

// placedListeners opens two loopback listeners whose addresses satisfy
// want, trying fresh ports for the second one. The gateway's ring hashes
// backend addresses, and the kernel picks ports at random, so without this
// each run would split the same keys across the backends differently. The
// inputs stay a pure function of the seed; only the ports are chosen.
func placedListeners(want placement) ([]net.Listener, bool, error) {
	var lns []net.Listener
	for len(lns) < 2 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, false, err
		}
		lns = append(lns, ln)
	}
	for try := 0; ; try++ {
		addrs := []string{lns[0].Addr().String(), lns[1].Addr().String()}
		ring := hashring.New(0)
		ring.Add(addrs...)
		if want == nil || want(ring, addrs) {
			return lns, true, nil
		}
		if try == 500 {
			return lns, false, nil
		}
		lns[1].Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			lns[0].Close()
			return nil, false, err
		}
		lns[1] = ln
	}
}

// newFleet starts the fleet in dir serving snap, and opens every keep-alive
// connection the timed phase will use: client → gateway and
// gateway → each backend, nclients deep.
func newFleet(dir string, snap *model.Snapshot, nclients int, binary bool, rec *recorder, want placement) (*fleet, error) {
	f := &fleet{dir: dir}
	lns, placed, err := placedListeners(want)
	if err != nil {
		return nil, err
	}
	f.placed = placed
	for i, ln := range lns {
		srv, err := server.New(server.Config{Replicate: true, StateDir: filepath.Join(dir, "backend"+strconv.Itoa(i))})
		if err == nil {
			err = srv.AddModel(modelName, snap)
		}
		if err != nil {
			if srv != nil {
				srv.Close()
			}
			for _, l := range lns[i:] {
				l.Close()
			}
			f.close()
			return nil, err
		}
		b := &backend{srv: srv, addr: ln.Addr().String()}
		b.http, b.done = serveOn(ln, rec.wrapBackend(b.addr, srv.Handler()))
		f.backends = append(f.backends, b)
	}
	addrs := []string{f.backends[0].addr, f.backends[1].addr}
	for i, b := range f.backends {
		b.srv.ConfigureReplication(b.addr, []string{addrs[1-i]}, "")
	}
	f.gwTr = &http.Transport{MaxIdleConnsPerHost: 2 * nclients}
	gw, err := server.NewGateway(server.GatewayConfig{Backends: addrs, Transport: rec.wrapTransport(f.gwTr)})
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw = gw
	gwLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	gwAddr := gwLn.Addr().String()
	f.gwHTTP, f.gwDone = serveOn(gwLn, rec.wrapGateway(gw.Handler()))
	ctx := context.Background()
	warm := &http.Client{Transport: f.gwTr}
	var wg sync.WaitGroup
	errs := make(chan error, 2*nclients+nclients)
	for _, a := range addrs {
		for j := 0; j < nclients; j++ {
			wg.Add(1)
			go func(a string) {
				defer wg.Done()
				resp, err := warm.Get("http://" + a + "/v1/healthz")
				if err != nil {
					errs <- err
					return
				}
				// Drained to EOF, or the transport drops the connection.
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}(a)
		}
	}
	for j := 0; j < nclients; j++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		opts := []client.Option{client.WithHTTPClient(&http.Client{Transport: tr, Timeout: 30 * time.Second})}
		if binary {
			opts = append(opts, client.WithBinary())
		}
		c := client.New(gwAddr, opts...)
		f.clientTr = append(f.clientTr, tr)
		f.clients = append(f.clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Health(ctx); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		f.close()
		return nil, fmt.Errorf("warm connections: %w", err)
	}
	return f, nil
}

// close stops the gateway, then the backends (flushing their checkpoints
// while the peers still listen), waits for every server goroutine and
// removes the state dir.
func (f *fleet) close() {
	if f.gwHTTP != nil {
		f.gwHTTP.Close()
		<-f.gwDone
	}
	if f.gw != nil {
		f.gw.Close()
	}
	for _, b := range f.backends {
		b.srv.Close()
	}
	for _, b := range f.backends {
		if b.http != nil {
			b.http.Close()
			<-b.done
		}
	}
	for _, tr := range append(f.clientTr, f.gwTr) {
		if tr != nil {
			tr.CloseIdleConnections()
		}
	}
	if dt, ok := http.DefaultTransport.(*http.Transport); ok {
		dt.CloseIdleConnections() // replica ships ride the default transport
	}
	os.RemoveAll(f.dir)
}

// counters sums each counter of the backends' /v1/metrics over the
// backends, and adds the gateway's mcdcd_gateway_retries_total (summed over
// its backend labels).
func (f *fleet) counters() (map[string]float64, error) {
	out := map[string]float64{}
	for _, b := range f.backends {
		if err := scrape(b.srv.Handler(), out, func(string) bool { return true }); err != nil {
			return nil, err
		}
	}
	err := scrape(f.gw.Handler(), out, func(name string) bool { return name == "mcdcd_gateway_retries_total" })
	return out, err
}

// scrape adds the samples of h's /v1/metrics whose name passes keep to out,
// both under the full series (name with labels) and summed under the name.
func scrape(h http.Handler, out map[string]float64, keep func(string) bool) error {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if w.Code != http.StatusOK {
		return fmt.Errorf("/v1/metrics: HTTP %d", w.Code)
	}
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		name, _, labeled := strings.Cut(series, "{")
		if v, err := strconv.ParseFloat(val, 64); err == nil && keep(name) {
			out[name] += v
			if labeled {
				out[series] += v
			}
		}
	}
	return sc.Err()
}

// trainModel fits the serving model on rows and returns its snapshot.
func trainModel(ds *mcdc.Dataset) (*model.Snapshot, error) {
	res, err := mcdc.Cluster(ds, classes)
	if err != nil {
		return nil, err
	}
	m, err := res.Model()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		return nil, err
	}
	return model.Load(&buf)
}

// servePhase is one closed loop against a fleet.
type servePhase struct {
	lat      []float64 // ms per request
	rows     int
	elapsed  time.Duration
	use      usage
	requests map[string]bool // trace ids of the timed requests
}

// fleetSetup builds a fresh fleet serving snap in its own state dir under
// the run dir, optionally traced, and runs prepare (session creation) on it.
func fleetSetup(o options, snap *model.Snapshot, binary bool, rec *recorder, tag string, want placement, prepare func(*fleet) error) (*fleet, error) {
	dir, err := os.MkdirTemp(o.runDir, "state-"+tag+"-")
	if err != nil {
		return nil, err
	}
	f, err := newFleet(dir, snap, o.clients, binary, rec, want)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if prepare != nil {
		if err := prepare(f); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// fillTraced sets the span-derived per-layer metrics of a traced phase and
// checks that the spans account for every traced request.
func fillTraced(o options, rep *report, rec *recorder, f *fleet, base, traced servePhase) error {
	b := rec.analyze(traced.requests)
	rep.layer["client.self_ms"] = b.selfMs[layerClient]
	rep.layer["gateway.self_ms"] = b.selfMs[layerGateway]
	rep.layer["gateway.forward_ms"] = b.selfMs[layerForward]
	rep.layer["server.assign_self_ms"] = b.selfMs[layerAssign]
	rep.layer["server.replica_accept_ms"] = b.selfMs[layerReplica]
	if p := median(base.lat); p > 0 {
		rep.layer["trace.overhead_pct"] = (b.rootP50 - p) / p * 100
	}
	var sum float64
	for _, v := range b.selfMs {
		sum += v
	}
	rep.notef("traced: %d requests, mean client span %.3f ms, layer self times sum to %.3f ms; overhead %.1f%% on p50",
		b.requests, b.rootMs, sum, rep.layer["trace.overhead_pct"])
	// Every span must nest inside the span of the layer above it, and the
	// self times must add up to the client span within 1%.
	rep.fail(int64(b.unlinked), "spans without an enclosing parent span")
	if b.requests != len(traced.requests) {
		rep.fail(int64(len(traced.requests)-b.requests), "traced requests without a client span")
	}
	if b.rootMs > 0 && (sum < 0.99*b.rootMs || sum > 1.01*b.rootMs) {
		rep.fail(1, "layer self times sum to %.3f ms, client span is %.3f ms", sum, b.rootMs)
	}
	cs, err := f.counters()
	if err != nil {
		return err
	}
	// Per-assignment checkpoints are counted by the checkpoint stage
	// histogram; mcdcd_session_checkpoints_total counts only flushes.
	rep.layer["server.checkpoints"] = cs[`mcdcd_stage_duration_seconds_count{stage="checkpoint"}`]
	rep.layer["server.ships"] = cs["mcdcd_replica_ships_total"]
	rep.layer["server.ship_failures"] = cs["mcdcd_replica_ship_failures_total"]
	rep.layer["gateway.retries"] = cs["mcdcd_gateway_retries_total"]
	return rec.dump(filepath.Join(o.runDir, "spans-"+o.workload+".json"), traced.requests)
}

// checkCounters fails the run on any replica ship failure or gateway retry.
func checkCounters(rep *report, f *fleet) error {
	cs, err := f.counters()
	if err != nil {
		return err
	}

	rep.fail(int64(cs["mcdcd_replica_ship_failures_total"]), "replica ship failures")
	rep.fail(int64(cs["mcdcd_gateway_retries_total"]), "gateway retries")
	return nil
}
