package xmltree

import (
	"strings"
	"testing"

	"kadop/internal/sid"
)

const sample = `<?xml version="1.0"?>
<article key="cite1">
  <author name="Jones">Dan Jones</author>
  <title>More on XML</title>
  <abstract>XML data management in P2P networks</abstract>
</article>`

func parse(t *testing.T, s string) *Document {
	t.Helper()
	d, err := ParseBytes([]byte(s))
	if err != nil {
		t.Fatalf("ParseBytes: %v", err)
	}
	return d
}

func find(d *Document, label string) []*Node {
	var out []*Node
	d.Walk(func(n *Node) {
		if n.Label == label {
			out = append(out, n)
		}
	})
	return out
}

func TestParseAssignsSIDs(t *testing.T) {
	d := parse(t, sample)
	if d.Root.Label != "article" {
		t.Fatalf("root = %q", d.Root.Label)
	}
	if d.Root.SID.Start != 1 {
		t.Errorf("root start = %d", d.Root.SID.Start)
	}
	if d.Root.SID.End != d.Tags {
		t.Errorf("root end = %d, tags = %d", d.Root.SID.End, d.Tags)
	}
	// Every element's sid is valid and strictly inside its parent's.
	var check func(n *Node)
	check = func(n *Node) {
		if !n.SID.Valid() {
			t.Errorf("invalid sid on %s: %v", n.Label, n.SID)
		}
		for _, c := range n.Children {
			if !n.SID.Contains(c.SID) {
				t.Errorf("%s %v does not contain child %s %v", n.Label, n.SID, c.Label, c.SID)
			}
			if c.SID.Level != n.SID.Level+1 {
				t.Errorf("child level %d, parent level %d", c.SID.Level, n.SID.Level)
			}
			check(c)
		}
	}
	check(d.Root)
}

func TestParseAttributesBecomeElements(t *testing.T) {
	d := parse(t, sample)
	keys := find(d, "key")
	if len(keys) != 1 {
		t.Fatalf("attribute 'key' elements: %d", len(keys))
	}
	if got := strings.Join(keys[0].Words, " "); got != "cite1" {
		t.Errorf("key attr words = %q", got)
	}
	names := find(d, "name")
	if len(names) != 1 || names[0].Words[0] != "jones" {
		t.Errorf("name attr = %v", names)
	}
}

func TestParseWords(t *testing.T) {
	d := parse(t, sample)
	titles := find(d, "title")
	if len(titles) != 1 {
		t.Fatal("no title")
	}
	want := []string{"more", "on", "xml"}
	if len(titles[0].Words) != len(want) {
		t.Fatalf("title words = %v", titles[0].Words)
	}
	for i, w := range want {
		if titles[0].Words[i] != w {
			t.Errorf("word %d = %q, want %q", i, titles[0].Words[i], w)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"just text",
		"<a><b></a></b>",
		"<a></a><b></b>",
	}
	for _, s := range bad {
		if _, err := ParseBytes([]byte(s)); err == nil {
			t.Errorf("ParseBytes(%q) should fail", s)
		}
	}
}

func TestParseIncludes(t *testing.T) {
	src := `<?xml version="1.0"?>
<!DOCTYPE document [
<!ENTITY thisabstract SYSTEM "2445abstract.xml">
<!ENTITY dj SYSTEM "DanJones.xml">
]>
<article>
  <author name="Jones">&dj;</author>
  <abstract>&thisabstract;</abstract>
</article>`
	d := parse(t, src)
	if !d.HasIncludes() {
		t.Fatal("includes not detected")
	}
	incs := find(d, IncludeLabel)
	if len(incs) != 2 {
		t.Fatalf("include nodes: %d", len(incs))
	}
	uris := map[string]bool{}
	for _, n := range incs {
		uris[n.Include] = true
	}
	if !uris["2445abstract.xml"] || !uris["DanJones.xml"] {
		t.Errorf("include uris = %v", uris)
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"More on XML", []string{"more", "on", "xml"}},
		{"P2P-based systems!", []string{"p2p", "based", "systems"}},
		{"", nil},
		{"   ", nil},
		{"snake_case stays", []string{"snake_case", "stays"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Tokenize(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestExtract(t *testing.T) {
	d := parse(t, sample)
	tps := Extract(d, 7, 9, ExtractOptions{})
	byKey := map[string]int{}
	for _, tp := range tps {
		byKey[tp.Term.Key()]++
		if tp.Posting.Peer != 7 || tp.Posting.Doc != 9 {
			t.Fatalf("posting ids: %v", tp.Posting)
		}
	}
	if byKey["l:article"] != 1 || byKey["l:author"] != 1 || byKey["l:title"] != 1 {
		t.Errorf("label postings: %v", byKey)
	}
	// "xml" appears under title and abstract.
	if byKey["w:xml"] != 2 {
		t.Errorf("w:xml postings = %d", byKey["w:xml"])
	}
}

func TestExtractStopWordsAndSkip(t *testing.T) {
	d := parse(t, sample)
	tps := Extract(d, 1, 1, ExtractOptions{stopWords: map[string]bool{"on": true}})
	for _, tp := range tps {
		if tp.Term.Kind == Word && tp.Term.Text == "on" {
			t.Error("stop word 'on' was indexed")
		}
	}
	tps = Extract(d, 1, 1, ExtractOptions{SkipWords: true})
	for _, tp := range tps {
		if tp.Term.Kind == Word {
			t.Error("SkipWords did not skip word terms")
		}
	}
}

func TestExtractDedupsWordsPerElement(t *testing.T) {
	d := parse(t, `<a>xml xml xml</a>`)
	tps := Extract(d, 1, 1, ExtractOptions{})
	count := 0
	for _, tp := range tps {
		if tp.Term.Key() == "w:xml" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("w:xml postings = %d, want 1 (deduped per element)", count)
	}
}

func TestTermKeys(t *testing.T) {
	if LabelTerm("author").Key() != "l:author" {
		t.Error("label key")
	}
	if WordTerm("Ullman").Key() != "w:ullman" {
		t.Error("word key should lower-case")
	}
	if LabelTerm("x").String() == "" {
		t.Error("String empty")
	}
}

func TestBuilderMatchesParser(t *testing.T) {
	b := NewBuilder()
	b.Open("article")
	b.Open("author").Text("Dan Jones").Close()
	b.Leaf("title", "More on XML")
	b.Close()
	d, err := b.Document()
	if err != nil {
		t.Fatal(err)
	}
	parsed := parse(t, `<article><author>Dan Jones</author><title>More on XML</title></article>`)
	var a, p []sid.SID
	d.Walk(func(n *Node) { a = append(a, n.SID) })
	parsed.Walk(func(n *Node) { p = append(p, n.SID) })
	if len(a) != len(p) {
		t.Fatalf("element counts differ: %d vs %d", len(a), len(p))
	}
	for i := range a {
		if a[i] != p[i] {
			t.Errorf("sid %d: builder %v, parser %v", i, a[i], p[i])
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder().Document(); err == nil {
		t.Error("empty build should fail")
	}
	if _, err := NewBuilder().Open("a").Document(); err == nil {
		t.Error("unclosed build should fail")
	}
	b := NewBuilder()
	b.Close()
	if _, err := b.Document(); err == nil {
		t.Error("close without open should fail")
	}
	b = NewBuilder()
	b.Text("dangling")
	if _, err := b.Document(); err == nil {
		t.Error("text outside element should fail")
	}
	b = NewBuilder()
	b.Open("a").Close()
	b.Open("b").Close()
	if _, err := b.Document(); err == nil {
		t.Error("second root should fail")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	b := NewBuilder()
	b.Open("article")
	b.Open("author").Text("Dan Jones").Include("DanJones.xml").Close()
	b.Leaf("title", "More on <XML> & more")
	b.Include("paper.xml")
	b.Close()
	d, err := b.Document()
	if err != nil {
		t.Fatal(err)
	}
	text := Serialize(d)
	rt, err := ParseBytes([]byte(text))
	if err != nil {
		t.Fatalf("round-trip parse: %v\n%s", err, text)
	}
	if !rt.HasIncludes() {
		t.Fatal("includes lost in round trip")
	}
	incs := find(rt, IncludeLabel)
	if len(incs) != 2 {
		t.Fatalf("round-trip includes: %d", len(incs))
	}
	if rt.Root.Label != "article" {
		t.Fatal("root label lost")
	}
	titles := find(rt, "title")
	joined := strings.Join(titles[0].Words, " ")
	if !strings.Contains(joined, "xml") {
		t.Errorf("title words lost: %q", joined)
	}
}

func TestElementsCount(t *testing.T) {
	d := parse(t, `<a><b/><c><d/></c></a>`)
	if n := d.Elements(); n != 4 {
		t.Errorf("Elements = %d", n)
	}
}

func TestParseDeepNesting(t *testing.T) {
	depth := 2000
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		sb.WriteString("<d>")
	}
	sb.WriteString("leaf")
	for i := 0; i < depth; i++ {
		sb.WriteString("</d>")
	}
	d, err := ParseBytes([]byte(sb.String()))
	if err != nil {
		t.Fatalf("deep document: %v", err)
	}
	if n := d.Elements(); n != depth {
		t.Fatalf("elements = %d", n)
	}
	// Levels must track depth, and sids nest correctly all the way down.
	deepest := d.Root
	for len(deepest.Children) > 0 {
		deepest = deepest.Children[0]
	}
	if int(deepest.SID.Level) != depth-1 {
		t.Fatalf("deepest level = %d", deepest.SID.Level)
	}
}

func TestParseWideDocument(t *testing.T) {
	const width = 5000
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < width; i++ {
		sb.WriteString("<c/>")
	}
	sb.WriteString("</r>")
	d, err := ParseBytes([]byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n := d.Elements(); n != width+1 {
		t.Fatalf("elements = %d", n)
	}
	if d.Root.SID.End != d.Tags {
		t.Fatalf("root end = %d, tags = %d", d.Root.SID.End, d.Tags)
	}
}

func TestParseUnicodeAndEntities(t *testing.T) {
	d := parse(t, `<a title="r&#233;sum&#233;">caf&#233; &amp; th&#233; 北京</a>`)
	var words []string
	d.Walk(func(n *Node) { words = append(words, n.Words...) })
	joined := strings.Join(words, " ")
	for _, w := range []string{"café", "thé", "北京", "résumé"} {
		if !strings.Contains(joined, w) {
			t.Errorf("missing unicode word %q in %q", w, joined)
		}
	}
}

func TestSIDNumberingIsDense(t *testing.T) {
	// Every tag position in [1, Tags] is used exactly once across all
	// opening/closing tags.
	d := parse(t, `<a><b><c/></b><d>x</d><e><f/><g/></e></a>`)
	used := map[uint32]int{}
	d.Walk(func(n *Node) {
		used[n.SID.Start]++
		used[n.SID.End]++
	})
	for pos := uint32(1); pos <= d.Tags; pos++ {
		if used[pos] != 1 {
			t.Fatalf("tag position %d used %d times", pos, used[pos])
		}
	}
}
