// Package admin serves the live introspection endpoint of a peer: a
// JSON metrics dump with latency percentiles, a recent-trace viewer,
// routing-table and store statistics, and net/http/pprof. It is wired
// behind the -debug-addr flag of the binaries and is off by default —
// a deployment that does not ask for it runs no HTTP listener at all.
package admin

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"kadop/internal/blockcache"
	"kadop/internal/dht"
	"kadop/internal/metrics"
	"kadop/internal/obs/flight"
	"kadop/internal/obs/slo"
	"kadop/internal/trace"
)

// Options name the peer internals the endpoint exposes. Every field is
// optional; absent subsystems render as empty sections.
type Options struct {
	// Collector supplies /debug/metrics (traffic classes, events, and
	// latency histograms) and the histogram/counter families of /metrics.
	Collector *metrics.Collector
	// Tracer supplies /debug/traces.
	Tracer *trace.Tracer
	// Node supplies the routing-table and store sections of /debug/peer.
	// It also supplies /debug/load and the load/registry families of
	// /metrics unless Load/Registry override it.
	Node *dht.Node
	// Docs reports the number of locally published documents (the KadoP
	// layer's count), shown on /debug/peer.
	Docs func() int
	// Cache supplies /debug/cache (the posting-block cache counters).
	// Safe to leave nil — and a nil *blockcache.Cache renders as zeros.
	Cache *blockcache.Cache
	// Load supplies /debug/load and the kadop_load_*/kadop_hot_term
	// families of /metrics. Defaults to Node.Load().
	Load *metrics.Load
	// Registry supplies the labeled counter/gauge families of /metrics.
	// Defaults to Node.Registry().
	Registry *metrics.Registry
	// Pprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiling endpoints on a public address are a foot-gun, so the
	// binaries gate them behind an explicit flag (kadop-bench, whose
	// endpoint exists for profiling, turns it on).
	Pprof bool
	// Flight supplies /debug/flight (the flight-recorder ring dump).
	// Defaults to Node.Flight().
	Flight *flight.Recorder
	// SLO supplies /debug/slo (objective statuses and burn rates).
	SLO *slo.Engine
	// BuildInfo adds kadop_build_info and the process start-time gauge
	// to /metrics. The binaries turn it on; deterministic tests leave it
	// off so golden expositions stay stable.
	BuildInfo bool
}

// load resolves the effective load source.
func (o Options) load() *metrics.Load {
	if o.Load != nil {
		return o.Load
	}
	if o.Node != nil {
		return o.Node.Load()
	}
	return nil
}

// registry resolves the effective registry source.
func (o Options) registry() *metrics.Registry {
	if o.Registry != nil {
		return o.Registry
	}
	if o.Node != nil {
		return o.Node.Registry()
	}
	return nil
}

// flightRecorder resolves the effective flight-ring source.
func (o Options) flightRecorder() *flight.Recorder {
	if o.Flight != nil {
		return o.Flight
	}
	if o.Node != nil {
		return o.Node.Flight()
	}
	return nil
}

// endpoint is one path of the admin mux: the line the / index page
// shows for it, and its handler over the Options.
type endpoint struct {
	path, doc string
	serve     func(o Options, w http.ResponseWriter, r *http.Request)
}

// endpoints is every path Handler registers besides the / index page
// and the optional /debug/pprof/ handlers. The index page is rendered
// from it, so the two cannot disagree.
var endpoints = []endpoint{
	{"/metrics", "Prometheus text exposition", func(o Options, w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		metrics.WriteProm(w, metrics.PromOptions{
			Collector: o.Collector,
			Load:      o.load(),
			Registry:  o.registry(),
			BuildInfo: o.BuildInfo,
		})
	}},
	{"/debug/metrics", "traffic classes, events, latency percentiles (JSON)", func(o Options, w http.ResponseWriter, r *http.Request) {
		writeJSON(w, o.Collector.Export())
	}},
	{"/debug/load", "per-peer load ledger, hot-term sketch (JSON)", func(o Options, w http.ResponseWriter, r *http.Request) {
		writeJSON(w, o.load().Export())
	}},
	{"/debug/traces", "recent query traces (JSON; ?format=text&n=8)", serveTraces},
	{"/debug/peer", "identity, routing table, store stats (JSON)", func(o Options, w http.ResponseWriter, r *http.Request) {
		info := map[string]any{}
		if o.Node != nil {
			info["addr"] = o.Node.Self().Addr
			info["id"] = fmt.Sprintf("%x", o.Node.Self().ID)
			info["routing_table_size"] = o.Node.Table().Size()
			if terms, err := o.Node.Store().Terms(); err == nil {
				info["store_terms"] = len(terms)
			}
		}
		if o.Docs != nil {
			info["documents"] = o.Docs()
		}
		writeJSON(w, info)
	}},
	{"/debug/cache", "posting-block cache counters (JSON)", func(o Options, w http.ResponseWriter, r *http.Request) {
		writeJSON(w, o.Cache.Stats())
	}},
	{"/debug/flight", "flight-recorder dump (JSON; ?kind=rpc filters)", serveFlight},
	{"/debug/slo", "SLO statuses and burn-rate verdict (JSON)", func(o Options, w http.ResponseWriter, r *http.Request) {
		if o.SLO == nil {
			http.Error(w, "no slo engine installed", http.StatusNotFound)
			return
		}
		statuses := o.SLO.Status()
		writeJSON(w, map[string]any{
			"verdict":    slo.Verdict(statuses),
			"objectives": statuses,
		})
	}},
}

// Handler builds the admin mux: an index page at /, every path of
// endpoints, and the standard pprof handlers under /debug/pprof/ when
// Options.Pprof is set.
func Handler(o Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "kadop debug endpoint\n\n")
		for _, e := range endpoints {
			fmt.Fprintf(w, "%-16s %s\n", e.path, e.doc)
		}
		if o.Pprof {
			fmt.Fprintf(w, "%-16s %s\n", "/debug/pprof/", "runtime profiles")
		}
	})
	for _, e := range endpoints {
		serve := e.serve
		mux.HandleFunc(e.path, func(w http.ResponseWriter, r *http.Request) { serve(o, w, r) })
	}
	if o.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func serveTraces(o Options, w http.ResponseWriter, r *http.Request) {
	n := 16
	if s := r.URL.Query().Get("n"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	recent := o.Tracer.Recent(n)
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, t := range recent {
			fmt.Fprintf(w, "trace %x %q\n%s\n", t.ID(), t.Name(), t.Tree())
		}
		return
	}
	out := make([]trace.TraceRecord, 0, len(recent))
	for _, t := range recent {
		out = append(out, t.Export())
	}
	writeJSON(w, out)
}

func serveFlight(o Options, w http.ResponseWriter, r *http.Request) {
	rec := o.flightRecorder()
	if rec == nil {
		http.Error(w, "no flight recorder installed", http.StatusNotFound)
		return
	}
	dump := rec.TakeDump("request")
	if kind := r.URL.Query().Get("kind"); kind != "" {
		kept := dump.Events[:0:0]
		for _, e := range dump.Events {
			if e.Kind == kind {
				kept = append(kept, e)
			}
		}
		dump.Events = kept
	}
	writeJSON(w, dump)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Serve starts the endpoint on addr (e.g. "127.0.0.1:6060") and returns
// the bound address and a shutdown function. The listener accepts
// immediately; serving runs in the background.
func Serve(addr string, o Options) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: Handler(o)}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}
