package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcdc/internal/server"
)

// Span layers of a served request, outermost first. A span's depth is its
// index here.
const (
	layerClient  = "client"                // the benchmark's client call
	layerGateway = "gateway"               // gateway Handler().ServeHTTP
	layerForward = "gateway.forward"       // gateway → backend round trip
	layerAssign  = "server.assign"         // backend Handler().ServeHTTP
	layerReplica = "server.replica_accept" // peer backend accepting a ship
)

var layerDepth = map[string]int{layerClient: 0, layerGateway: 1, layerForward: 2, layerAssign: 3, layerReplica: 4}

// span is one timed interval of one request. Spans of a request share its
// trace id (the X-MCDC-Request-Id the client sent); Parent is filled in when
// the run ends.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a request's root span
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"` // backend address of forward and server spans
	Start  int64  `json:"start_ns"`       // since the recorder started
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, and its wrappers return what they wrap unchanged.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
	// active maps a session id to the trace id of its request in flight, so
	// a replica ship (which carries no request id) joins that request.
	active sync.Map
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a span and returns its id. parent may be 0 and filled in by
// analyze.
func (r *recorder) add(trace, name, node string, parent, start, end int64) int64 {
	s := span{ID: r.ids.Add(1), Parent: parent, Trace: trace, Name: name, Node: node, Start: start, End: end}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.ID
}

// wrapGateway times the gateway's handler.
func (r *recorder) wrapGateway(h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := r.now()
		h.ServeHTTP(w, req)
		r.add(req.Header.Get(server.RequestIDHeader), layerGateway, "", 0, start, r.now())
	})
}

// wrapBackend times a backend's handler: assigns join their request by the
// propagated request id, replica ships by the session they carry.
func (r *recorder) wrapBackend(node string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := r.now()
		h.ServeHTTP(w, req)
		end := r.now()
		if strings.HasSuffix(req.URL.Path, "/replica/checkpoint") {
			if t, ok := r.active.Load(req.URL.Query().Get("session")); ok {
				r.add(t.(string), layerReplica, node, 0, start, end)
			}
			return
		}
		r.add(req.Header.Get(server.RequestIDHeader), layerAssign, node, 0, start, end)
	})
}

// wrapTransport times the gateway's backend round trips, from the request
// until the gateway closes the response body.
func (r *recorder) wrapTransport(rt http.RoundTripper) http.RoundTripper {
	if r == nil {
		return rt
	}
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		start := r.now()
		trace, node := req.Header.Get(server.RequestIDHeader), req.URL.Host
		resp, err := rt.RoundTrip(req)
		if err != nil {
			r.add(trace, layerForward, node, 0, start, r.now())
			return resp, err
		}
		resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() { r.add(trace, layerForward, node, 0, start, r.now()) }}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// endOnClose runs end once, when the body is closed.
type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// breakdown is the per-layer attribution of a traced phase.
type breakdown struct {
	requests int
	selfMs   map[string]float64 // mean self time per request, by layer
	rootMs   float64            // mean client span
	rootP50  float64            // median client span
	// unlinked counts spans of traced requests that found no enclosing
	// parent of the layer above theirs.
	unlinked int
}

// analyze links every span of the given requests to its parent and
// attributes each request's client span to layers. A layer's self time is
// the part of the client span during which one of its spans is the deepest
// open span of the request: for nested spans that is the span minus its
// children, and where the gateway fans one chunk out to both backends at
// once every instant still counts exactly once.
func (r *recorder) analyze(requests map[string]bool) breakdown {
	byTrace := map[string][]*span{}
	for i := range r.spans {
		s := &r.spans[i]
		if requests[s.Trace] {
			byTrace[s.Trace] = append(byTrace[s.Trace], s)
		}
	}
	b := breakdown{selfMs: map[string]float64{}}
	var roots []float64
	for _, spans := range byTrace {
		var root *span
		for _, s := range spans {
			if s.Name == layerClient {
				root = s
			}
		}
		if root == nil {
			b.unlinked += len(spans)
			continue
		}
		b.requests++
		roots = append(roots, ms(time.Duration(root.dur())))
		for _, s := range spans {
			if s != root && !link(s, spans) {
				b.unlinked++
			}
		}
		for layer, ns := range attribute(root, spans) {
			b.selfMs[layer] += float64(ns) / 1e6
		}
	}
	if b.requests > 0 {
		for l := range b.selfMs {
			b.selfMs[l] /= float64(b.requests)
		}
		b.rootMs = mean(roots)
		b.rootP50 = median(roots)
	}
	return b
}

// link sets s.Parent to the innermost span of the layer above s that
// encloses it: a server span's forward targets its node, a replica accept's
// parent assign runs on the other node.
func link(s *span, spans []*span) bool {
	want := layerDepth[s.Name] - 1
	var best *span
	for _, p := range spans {
		if p == s || layerDepth[p.Name] != want || p.Start > s.Start || p.End < s.End {
			continue
		}
		switch s.Name {
		case layerAssign:
			if p.Node != s.Node {
				continue
			}
		case layerReplica:
			if p.Node == s.Node {
				continue
			}
		}
		if best == nil || p.Start > best.Start {
			best = p
		}
	}
	if best == nil {
		return false
	}
	s.Parent = best.ID
	return true
}

// attribute splits root's interval among layers by deepest open span.
func attribute(root *span, spans []*span) map[string]int64 {
	var cuts []int64
	for _, s := range spans {
		for _, t := range []int64{s.Start, s.End} {
			if t >= root.Start && t <= root.End {
				cuts = append(cuts, t)
			}
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := map[string]int64{}
	for i := 1; i < len(cuts); i++ {
		a, z := cuts[i-1], cuts[i]
		if z == a {
			continue
		}
		deepest, depth := layerClient, -1
		for _, s := range spans {
			if s.Start <= a && s.End >= z && layerDepth[s.Name] > depth {
				deepest, depth = s.Name, layerDepth[s.Name]
			}
		}
		out[deepest] += z - a
	}
	return out
}

// dump writes the spans of the given requests (all spans when requests is
// nil) as JSON to path.
func (r *recorder) dump(path string, requests map[string]bool) error {
	var keep []span
	for _, s := range r.spans {
		if requests == nil || requests[s.Trace] {
			keep = append(keep, s)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(keep); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
