package dht

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"kadop/internal/postings"
	"kadop/internal/sid"
	"kadop/internal/store"
)

func TestIDXORMetric(t *testing.T) {
	a := KeyID("a")
	b := KeyID("b")
	if a.XOR(a) != (ID{}) {
		t.Error("d(x,x) must be 0")
	}
	if a.XOR(b) != b.XOR(a) {
		t.Error("XOR must be symmetric")
	}
	f := func(x, y, z [20]byte) bool {
		// Triangle inequality holds for XOR metrics under unsigned
		// comparison: d(x,z) <= d(x,y) XOR d(y,z) is actually equality
		// d(x,z) = d(x,y) xor d(y,z); check that identity instead.
		xi, yi, zi := ID(x), ID(y), ID(z)
		return xi.XOR(zi) == xi.XOR(yi).XOR(yi.XOR(zi))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBucketIndex(t *testing.T) {
	var a ID
	if a.BucketIndex(a) != -1 {
		t.Error("same id has no bucket")
	}
	var b ID
	b[0] = 0x80
	if got := a.BucketIndex(b); got != 159 {
		t.Errorf("msb differs: bucket %d, want 159", got)
	}
	var c ID
	c[IDBytes-1] = 1
	if got := a.BucketIndex(c); got != 0 {
		t.Errorf("lsb differs: bucket %d, want 0", got)
	}
}

func TestTableUpdateAndClosest(t *testing.T) {
	self := PeerIDFromSeed("self")
	tbl := NewTable(self, 4)
	var contacts []Contact
	for i := 0; i < 50; i++ {
		c := Contact{ID: PeerIDFromSeed(fmt.Sprintf("peer%d", i)), Addr: fmt.Sprintf("a%d", i)}
		contacts = append(contacts, c)
		tbl.Update(c)
	}
	if tbl.Size() == 0 {
		t.Fatal("table empty after updates")
	}
	target := KeyID("l:author")
	got := tbl.Closest(target, 5)
	if len(got) == 0 || len(got) > 5 {
		t.Fatalf("Closest returned %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].ID.XOR(target).Less(got[i-1].ID.XOR(target)) {
			t.Fatal("Closest not sorted by distance")
		}
	}
	// Self is never stored.
	tbl.Update(Contact{ID: self, Addr: "self"})
	for _, c := range tbl.Closest(self, 100) {
		if c.ID == self {
			t.Fatal("table stored self")
		}
	}
	// Remove works.
	tbl.Remove(got[0].ID)
	for _, c := range tbl.Closest(target, 100) {
		if c.ID == got[0].ID {
			t.Fatal("Remove did not remove")
		}
	}
}

func TestTableBucketCapacity(t *testing.T) {
	self := PeerIDFromSeed("self")
	tbl := NewTable(self, 2)
	// Generate many contacts in the same bucket (same top bit pattern):
	// brute force by filtering on BucketIndex.
	bucket := -1
	added := 0
	for i := 0; i < 1000 && added < 10; i++ {
		c := Contact{ID: PeerIDFromSeed(fmt.Sprintf("x%d", i)), Addr: fmt.Sprintf("x%d", i)}
		bi := self.BucketIndex(c.ID)
		if bucket == -1 {
			bucket = bi
		}
		if bi == bucket {
			tbl.Update(c)
			added++
		}
	}
	if added < 3 {
		t.Skip("could not generate enough same-bucket contacts")
	}
	if tbl.Size() > 2 {
		t.Fatalf("bucket exceeded capacity: %d", tbl.Size())
	}
}

func randomPostings(rng *rand.Rand, n int) postings.List {
	l := make(postings.List, n)
	for i := range l {
		s := uint32(rng.Intn(5000) + 1)
		l[i] = sid.Posting{
			Peer: sid.PeerID(rng.Intn(5)), Doc: sid.DocID(rng.Intn(50)),
			SID: sid.SID{Start: s, End: s + 1 + uint32(rng.Intn(40)), Level: uint16(rng.Intn(6))},
		}
	}
	l.Sort()
	return l.Dedup()
}

func TestMessageCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	msgs := []Message{
		{Type: MsgPing, From: Contact{ID: KeyID("x"), Addr: "sim://1"}},
		{Type: MsgFindNode, Target: KeyID("l:author")},
		{Type: MsgAppend, Key: "l:author", Postings: randomPostings(rng, 100)},
		{Type: MsgNodes, Contacts: []Contact{{ID: KeyID("a"), Addr: "h1:1"}, {ID: KeyID("b"), Addr: "h2:2"}}},
		{Type: MsgApp, Proc: "filter:ab", Key: "k", Blob: []byte{1, 2, 3, 0, 255}},
		{Type: MsgError, Err: "boom"},
		{Type: MsgChunk, Postings: randomPostings(rng, 7)},
	}
	for _, m := range msgs {
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("Encode(%s): %v", m.Type, err)
		}
		got, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("Decode(%s): %v", m.Type, err)
		}
		if got.Type != m.Type || got.Key != m.Key || got.Proc != m.Proc || got.Err != m.Err {
			t.Fatalf("scalar fields lost: %+v vs %+v", got, m)
		}
		if !reflect.DeepEqual(got.Blob, m.Blob) && len(m.Blob) > 0 {
			t.Fatalf("blob lost")
		}
		if len(got.Postings) != len(m.Postings) {
			t.Fatalf("postings lost: %d vs %d", len(got.Postings), len(m.Postings))
		}
		for i := range m.Postings {
			if got.Postings[i] != m.Postings[i] {
				t.Fatal("postings corrupted")
			}
		}
		if !reflect.DeepEqual(got.Contacts, m.Contacts) && len(m.Contacts) > 0 {
			t.Fatal("contacts lost")
		}
	}
}

func TestMessageCodecRejectsTruncation(t *testing.T) {
	m := Message{Type: MsgAppend, Key: "l:author", Postings: randomPostings(rand.New(rand.NewSource(2)), 20)}
	enc, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc)-1; cut += 7 {
		if _, err := DecodeMessage(enc[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes should fail", cut, len(enc))
		}
	}
}

func TestMessageClasses(t *testing.T) {
	cases := map[MsgType]string{
		MsgPing: "routing", MsgFindNode: "routing", MsgAppend: "index",
		MsgGet: "postings", MsgChunk: "postings",
	}
	for typ, class := range cases {
		if got := string((Message{Type: typ}).Class()); got != class {
			t.Errorf("class(%s) = %s, want %s", typ, got, class)
		}
	}
	if got := (Message{Type: MsgApp, Proc: "filter:abreduce"}).Class(); string(got) != "filters-ab" {
		t.Errorf("AB filter proc class = %s", got)
	}
	if got := (Message{Type: MsgApp, Proc: "filter:dbreduce"}).Class(); string(got) != "filters-db" {
		t.Errorf("DB filter proc class = %s", got)
	}
	if got := (Message{Type: MsgApp, Proc: "filter:other"}).Class(); string(got) != "filters" {
		t.Errorf("generic filter proc class = %s", got)
	}
	if got := (Message{Type: MsgApp, Proc: "query:run"}).Class(); string(got) != "control" {
		t.Errorf("control proc class = %s", got)
	}
}

// buildNetwork spins up n peers on a simulated network, all
// bootstrapped through the first.
func buildNetwork(t testing.TB, net *Network, n int) []*Node {
	t.Helper()
	nodes := make([]*Node, n)
	for i := range nodes {
		node, err := NewNode(net.NewEndpoint(), store.NewMem(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	for i := 1; i < n; i++ {
		if err := nodes[i].Bootstrap(nodes[0].Self()); err != nil {
			t.Fatalf("bootstrap node %d: %v", i, err)
		}
	}
	// A second pass of self-lookups tightens tables after everyone joined.
	for _, nd := range nodes {
		if _, err := nd.Lookup(nd.Self().ID); err != nil {
			t.Fatal(err)
		}
	}
	return nodes
}

func TestLookupConvergesToGlobalClosest(t *testing.T) {
	net := NewNetwork()
	nodes := buildNetwork(t, net, 40)
	for _, key := range []string{"l:author", "l:title", "w:xml", "overflow:3:l:author"} {
		target := KeyID(key)
		// Ground truth: globally closest node.
		best := nodes[0]
		for _, nd := range nodes {
			if nd.Self().ID.XOR(target).Less(best.Self().ID.XOR(target)) {
				best = nd
			}
		}
		// Every node must locate the same owner.
		for i, nd := range nodes {
			owner, err := nd.Locate(key)
			if err != nil {
				t.Fatalf("node %d locate: %v", i, err)
			}
			if owner.ID != best.Self().ID {
				t.Fatalf("node %d located %s, want %s for key %q", i, owner, best.Self(), key)
			}
		}
	}
}

func TestAppendGetAcrossNetwork(t *testing.T) {
	net := NewNetwork()
	nodes := buildNetwork(t, net, 20)
	rng := rand.New(rand.NewSource(3))
	want := randomPostings(rng, 700)
	// Append in chunks from different peers.
	for i := 0; i < len(want); i += 100 {
		end := i + 100
		if end > len(want) {
			end = len(want)
		}
		if err := nodes[i/100%len(nodes)].Append(context.Background(), "l:author", want[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := nodes[7].Get(context.Background(), "l:author")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Get across network: %d vs %d postings", len(got), len(want))
	}
	// Traffic was recorded.
	if net.Collector.Bytes("index") == 0 || net.Collector.Bytes("postings") == 0 {
		t.Errorf("collector missing traffic:\n%s", net.Collector.Snapshot())
	}
}

func TestGetStreamPipelined(t *testing.T) {
	net := NewNetwork()
	nodes := buildNetwork(t, net, 10)
	rng := rand.New(rand.NewSource(4))
	want := randomPostings(rng, 3000)
	if err := nodes[1].Append(context.Background(), "w:xml", want); err != nil {
		t.Fatal(err)
	}
	s, err := nodes[2].GetStream(context.Background(), "w:xml")
	if err != nil {
		t.Fatal(err)
	}
	got, err := postings.Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream: %d vs %d postings", len(got), len(want))
	}
}

func TestDeleteAndDeleteKey(t *testing.T) {
	net := NewNetwork()
	nodes := buildNetwork(t, net, 8)
	rng := rand.New(rand.NewSource(5))
	l := randomPostings(rng, 50)
	if err := nodes[0].Append(context.Background(), "l:x", l); err != nil {
		t.Fatal(err)
	}
	if err := nodes[3].Delete(context.Background(), "l:x", postings.List{l[7]}); err != nil {
		t.Fatal(err)
	}
	got, err := nodes[5].Get(context.Background(), "l:x")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(l)-1 {
		t.Fatalf("after delete: %d", len(got))
	}
	if err := nodes[2].DeleteKey(context.Background(), "l:x"); err != nil {
		t.Fatal(err)
	}
	got, _ = nodes[4].Get(context.Background(), "l:x")
	if len(got) != 0 {
		t.Fatalf("after delete-key: %d", len(got))
	}
}

func TestAppProcs(t *testing.T) {
	net := NewNetwork()
	nodes := buildNetwork(t, net, 6)
	for _, nd := range nodes {
		nd.Handle("echo", func(_ context.Context, from Contact, key string, blob []byte) ([]byte, error) {
			return append([]byte("echo:"), blob...), nil
		})
		nd.HandleStreamProc("stream:first", func(_ context.Context, from Contact, key string, blob []byte, send func(postings.List) error) error {
			l, err := nodes[0].Store().Get(key)
			if err != nil {
				return err
			}
			return send(l)
		})
	}
	out, err := nodes[1].CallProc(context.Background(), "anykey", "echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "echo:hi" {
		t.Fatalf("echo = %q", out)
	}
	if _, err := nodes[1].CallProc(context.Background(), "anykey", "missing", nil); err == nil {
		t.Fatal("unknown proc should error")
	}
}

func TestReplication(t *testing.T) {
	net := NewNetwork()
	nodes := make([]*Node, 12)
	for i := range nodes {
		node, err := NewNode(net.NewEndpoint(), store.NewMem(), Config{Replication: 3})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	for i := 1; i < len(nodes); i++ {
		if err := nodes[i].Bootstrap(nodes[0].Self()); err != nil {
			t.Fatal(err)
		}
	}
	for _, nd := range nodes {
		nd.Lookup(nd.Self().ID)
	}
	rng := rand.New(rand.NewSource(6))
	l := randomPostings(rng, 40)
	if err := nodes[4].Append(context.Background(), "l:author", l); err != nil {
		t.Fatal(err)
	}
	// Count replicas across stores.
	replicas := 0
	for _, nd := range nodes {
		if c, _ := nd.Store().Count("l:author"); c == len(l) {
			replicas++
		}
	}
	if replicas != 3 {
		t.Fatalf("replicas = %d, want 3", replicas)
	}
	// Kill the primary owner: Get still succeeds via a surviving replica?
	// The basic Get asks only the closest; simulate owner failure and
	// verify a re-locate from another node can still find a copy among
	// the k closest.
	owner, err := nodes[4].Locate("l:author")
	if err != nil {
		t.Fatal(err)
	}
	net.Partition(owner.Addr)
	found := false
	for _, nd := range nodes {
		if nd.Self().Addr == owner.Addr {
			continue
		}
		cs, err := nd.Lookup(KeyID("l:author"))
		if err != nil {
			continue
		}
		for _, c := range cs {
			if c.Addr == owner.Addr {
				continue
			}
			resp, err := nd.tr.Call(context.Background(), c, Message{Type: MsgGet, From: nd.Self(), Key: "l:author"})
			if err == nil && len(resp.Postings) == len(l) {
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no surviving replica reachable after owner failure")
	}
}

func TestTCPTransportEndToEnd(t *testing.T) {
	mkNode := func() *Node {
		tr, err := NewTCPTransport("127.0.0.1:0", nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(tr, store.NewMem(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b, c := mkNode(), mkNode(), mkNode()
	defer a.Close()
	defer b.Close()
	defer c.Close()
	if err := b.Bootstrap(a.Self()); err != nil {
		t.Fatal(err)
	}
	if err := c.Bootstrap(a.Self()); err != nil {
		t.Fatal(err)
	}
	for _, nd := range []*Node{a, b, c} {
		if _, err := nd.Lookup(nd.Self().ID); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	want := randomPostings(rng, 1500)
	if err := b.Append(context.Background(), "l:author", want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(context.Background(), "l:author")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tcp get: %d vs %d", len(got), len(want))
	}
	s, err := c.GetStream(context.Background(), "l:author")
	if err != nil {
		t.Fatal(err)
	}
	got2, err := postings.Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Fatalf("tcp stream: %d vs %d", len(got2), len(want))
	}
}

func TestCallToDeadPeerFails(t *testing.T) {
	net := NewNetwork()
	nodes := buildNetwork(t, net, 3)
	dead := Contact{ID: PeerIDFromSeed("ghost"), Addr: "sim://999"}
	if _, err := nodes[0].tr.Call(context.Background(), dead, Message{Type: MsgPing, From: nodes[0].Self()}); err == nil {
		t.Fatal("call to dead peer should fail")
	}
}

func TestAppendAtDeleteAtTargeted(t *testing.T) {
	net := NewNetwork()
	nodes := buildNetwork(t, net, 8)
	l := randomPostings(rand.New(rand.NewSource(9)), 30)
	target := nodes[5].Self()
	// Targeted append bypasses ownership routing entirely.
	if err := nodes[1].AppendAt(context.Background(), target, "overflow:1:l:x", l); err != nil {
		t.Fatal(err)
	}
	if n, _ := nodes[5].Store().Count("overflow:1:l:x"); n != len(l) {
		t.Fatalf("targeted append stored %d", n)
	}
	if err := nodes[2].DeleteAt(context.Background(), target, "overflow:1:l:x", postings.List{l[3]}); err != nil {
		t.Fatal(err)
	}
	if n, _ := nodes[5].Store().Count("overflow:1:l:x"); n != len(l)-1 {
		t.Fatalf("targeted delete left %d", n)
	}
	// Local fast paths.
	if err := nodes[5].AppendAt(context.Background(), target, "overflow:2:l:x", l[:5]); err != nil {
		t.Fatal(err)
	}
	if err := nodes[5].DeleteAt(context.Background(), target, "overflow:2:l:x", postings.List{l[0]}); err != nil {
		t.Fatal(err)
	}
	if n, _ := nodes[5].Store().Count("overflow:2:l:x"); n != 4 {
		t.Fatalf("local targeted ops left %d", n)
	}
}

func TestStringsNonEmpty(t *testing.T) {
	if KeyID("x").String() == "" {
		t.Error("ID.String")
	}
	c := Contact{ID: KeyID("y"), Addr: "sim://1"}
	if c.String() == "" {
		t.Error("Contact.String")
	}
	for typ := MsgPing; typ <= MsgAppReply; typ++ {
		if typ.String() == "" {
			t.Errorf("MsgType(%d).String empty", typ)
		}
	}
	if MsgType(200).String() == "" {
		t.Error("unknown MsgType should still render")
	}
}

func TestEndpointCloseStopsService(t *testing.T) {
	net := NewNetwork()
	nodes := buildNetwork(t, net, 4)
	addr := nodes[3].Self()
	if err := nodes[3].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].tr.Call(context.Background(), addr, Message{Type: MsgPing, From: nodes[0].Self()}); err == nil {
		t.Fatal("call to a closed endpoint should fail")
	}
	// Survivors keep working.
	if _, err := nodes[0].Lookup(KeyID("l:x")); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteWithReplication(t *testing.T) {
	net := NewNetwork()
	nodes := make([]*Node, 10)
	for i := range nodes {
		nd, err := NewNode(net.NewEndpoint(), store.NewMem(), Config{Replication: 3})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	for i := 1; i < len(nodes); i++ {
		if err := nodes[i].Bootstrap(nodes[0].Self()); err != nil {
			t.Fatal(err)
		}
	}
	for _, nd := range nodes {
		nd.Lookup(nd.Self().ID)
	}
	l := randomPostings(rand.New(rand.NewSource(10)), 20)
	if err := nodes[0].Append(context.Background(), "l:rep", l); err != nil {
		t.Fatal(err)
	}
	// Delete one posting everywhere, then the whole key everywhere.
	if err := nodes[4].Delete(context.Background(), "l:rep", postings.List{l[0]}); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		if n, _ := nd.Store().Count("l:rep"); n != 0 && n != len(l)-1 {
			t.Fatalf("replica holds %d postings after delete", n)
		}
	}
	if err := nodes[7].DeleteKey(context.Background(), "l:rep"); err != nil {
		t.Fatal(err)
	}
	for i, nd := range nodes {
		if n, _ := nd.Store().Count("l:rep"); n != 0 {
			t.Fatalf("replica %d still holds %d postings after delete-key", i, n)
		}
	}
}
