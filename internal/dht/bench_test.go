package dht

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"kadop/internal/postings"
	"kadop/internal/store"
)

func benchNetwork(b *testing.B, n int) []*Node {
	b.Helper()
	net := NewNetwork()
	nodes := make([]*Node, n)
	for i := range nodes {
		nd, err := NewNode(net.NewEndpoint(), store.NewMem(), Config{})
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = nd
	}
	for i := 1; i < n; i++ {
		if err := nodes[i].Bootstrap(nodes[0].Self()); err != nil {
			b.Fatal(err)
		}
	}
	for _, nd := range nodes {
		nd.Lookup(nd.Self().ID)
	}
	return nodes
}

func BenchmarkLookup50Peers(b *testing.B) {
	nodes := benchNetwork(b, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nodes[i%len(nodes)].Lookup(KeyID(fmt.Sprintf("l:t%d", i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendThroughRouting(b *testing.B) {
	nodes := benchNetwork(b, 20)
	l := randomPostings(rand.New(rand.NewSource(1)), 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nodes[i%len(nodes)].Append(context.Background(), fmt.Sprintf("l:t%d", i%16), l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelinedGet(b *testing.B) {
	nodes := benchNetwork(b, 12)
	l := randomPostings(rand.New(rand.NewSource(2)), 10000)
	if err := nodes[0].Append(context.Background(), "l:big", l); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := nodes[1+i%10].GetStream(context.Background(), "l:big")
		if err != nil {
			b.Fatal(err)
		}
		got, err := postings.Drain(s)
		if err != nil || len(got) != len(l) {
			b.Fatalf("drained %d (%v)", len(got), err)
		}
	}
}
