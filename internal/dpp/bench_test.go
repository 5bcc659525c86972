package dpp

import (
	"context"
	"testing"

	"kadop/internal/postings"
)

func BenchmarkDPPAppendAndSplit(b *testing.B) {
	c := newCluster(b, 12, Options{BlockSize: 512})
	l := seqPostings(256, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.managers[i%len(c.managers)].Append(context.Background(), "l:author", l, ""); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDPPFetchParallel(b *testing.B) {
	c := newCluster(b, 12, Options{BlockSize: 256})
	want := seqPostings(4096, 32)
	if err := c.managers[0].Append(context.Background(), "l:author", want, ""); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _, err := c.managers[1].Fetch("l:author", FetchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		got, err := postings.Drain(s)
		if err != nil || len(got) != len(want) {
			b.Fatalf("drained %d (%v)", len(got), err)
		}
	}
}
