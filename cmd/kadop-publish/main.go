// Command kadop-publish checks XML documents into a running KadoP
// deployment. It starts an ephemeral publishing peer, joins through the
// given bootstrap address, publishes each file, and keeps serving until
// interrupted (the documents live at their publishing peer, so the
// process must stay up for phase-two query evaluation, which queries
// with a wildcard need).
//
//	kadop-publish -bootstrap 127.0.0.1:7001 -id 10 docs/*.xml
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kadop"
)

func main() {
	var (
		bootstrap = flag.String("bootstrap", "", "address of any running peer (required)")
		id        = flag.Uint("id", 0, "internal peer id for this publisher (unique, > 0)")
		listen    = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		oneshot   = flag.Bool("oneshot", false, "exit after publishing (documents become unreachable for phase two)")
		useDPP    = flag.Bool("dpp", false, "the deployment partitions posting lists (-dpp on its peers)")
		repl      = flag.Int("replication", 1, "index replication factor (must match the deployment's peers)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics and the /debug/ paths (listed at /) on this address")
	)
	flag.Parse()
	if *bootstrap == "" || *id == 0 || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: kadop-publish -bootstrap ADDR -id N file.xml...")
		os.Exit(2)
	}

	cfg := kadop.Config{UseDPP: *useDPP, DHT: kadop.DHTConfig{
		Replication: *repl,
		Retry: kadop.RetryPolicy{
			Attempts:    3,
			BaseBackoff: 50 * time.Millisecond,
			MaxBackoff:  time.Second,
		},
	}}
	peer, err := kadop.NewTCPPeer(*listen, kadop.PeerID(*id), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kadop-publish:", err)
		os.Exit(1)
	}
	if *debugAddr != "" {
		tracer := kadop.EnableTracing(peer, 16)
		kadop.EnableFlight(peer)
		addr, stop, err := kadop.ServeDebug(*debugAddr, peer, kadop.DebugOptions{Tracer: tracer, BuildInfo: true})
		if err != nil {
			fmt.Fprintf(os.Stderr, "kadop-publish: debug endpoint %s: %v\n", *debugAddr, err)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "kadop-publish: debug endpoint on http://%s\n", addr)
	}
	if err := kadop.Join(peer, *bootstrap); err != nil {
		fmt.Fprintln(os.Stderr, "kadop-publish: join:", err)
		os.Exit(1)
	}
	for _, path := range flag.Args() {
		raw, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kadop-publish:", err)
			os.Exit(1)
		}
		key, err := peer.PublishXML(raw, path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kadop-publish: %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("published %s as %v\n", path, key)
	}
	if *oneshot {
		peer.Node().Close()
		return
	}
	fmt.Println("kadop-publish: serving published documents; Ctrl-C to stop")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	peer.Node().Close()
}
