package experiments

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"kadop/internal/postings"
	"kadop/internal/sid"
	"kadop/internal/store"
)

// naiveStore is the PAST-like baseline store: every term's posting list
// is one gzip-compressed file, and each Append reads, decompresses,
// merges, recompresses and rewrites the whole file — the quadratic
// behaviour the paper measured before re-engineering the store. Only
// Figure 2's baseline row and the store ablation run it. It is the one
// documented exception to store.Store's guarantees: ApplyBatch replays
// the batch op by op (no atomicity), and Snapshot returns the live
// store, whose reads serialise on its one mutex — a later write IS
// visible through it.
type naiveStore struct {
	dir     string
	mu      sync.Mutex
	written int64 // blob bytes written, under mu
}

// newNaiveStore returns a naive store rooted at dir (created if needed).
func newNaiveStore(dir string) (*naiveStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: naive store: %w", err)
	}
	return &naiveStore{dir: dir}, nil
}

func (n *naiveStore) path(term string) string {
	// Escape path separators; term keys are short ("l:author"). The
	// escape character itself goes first, so a term containing a literal
	// "%2F" ("%252F" on disk) cannot collide with a term containing "/".
	safe := strings.NewReplacer("%", "%25", "/", "%2F", "\\", "%5C", ":", "%3A", ".", "%2E").Replace(term)
	return filepath.Join(n.dir, safe+".gz")
}

func (n *naiveStore) read(term string) (postings.List, error) {
	f, err := os.Open(n.path(term))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: naive store: %w", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("experiments: naive store: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("experiments: naive store: %w", err)
	}
	l, _, err := postings.Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("experiments: naive store: %w", err)
	}
	return l, nil
}

func (n *naiveStore) write(term string, l postings.List) error {
	if len(l) == 0 { // no empty blob: an emptied term is no term
		if err := os.Remove(n.path(term)); err != nil && !os.IsNotExist(err) {
			return err
		}
		return nil
	}
	raw, err := postings.Encode(l)
	if err != nil {
		return fmt.Errorf("experiments: naive store: %w", err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		return fmt.Errorf("experiments: naive store: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("experiments: naive store: %w", err)
	}
	if err := os.WriteFile(n.path(term), buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("experiments: naive store: %w", err)
	}
	n.written += int64(buf.Len())
	return nil
}

// Append implements Store — deliberately by read-modify-write.
func (n *naiveStore) Append(term string, ps postings.List) error {
	if len(ps) == 0 {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	cur, err := n.read(term)
	if err != nil {
		return err
	}
	add := ps.Clone()
	add.Sort()
	return n.write(term, postings.MergeUnique(cur, add))
}

// Get implements Store.
func (n *naiveStore) Get(term string) (postings.List, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.read(term)
}

// Scan implements Store.
func (n *naiveStore) Scan(term string, from sid.Posting, fn func(sid.Posting) bool) error {
	l, err := n.Get(term)
	if err != nil {
		return err
	}
	i := sort.Search(len(l), func(i int) bool { return l[i].Compare(from) >= 0 })
	for _, p := range l[i:] {
		if !fn(p) {
			return nil
		}
	}
	return nil
}

// Runs implements Store.
func (n *naiveStore) Runs(term string, from, to sid.Posting, fn func(postings.Run) bool) error {
	l, err := n.Get(term)
	if err != nil {
		return err
	}
	return l.Runs(from, to, fn)
}

// Count implements Store.
func (n *naiveStore) Count(term string) (int, error) {
	l, err := n.Get(term)
	return len(l), err
}

// Delete implements Store.
func (n *naiveStore) Delete(term string, p sid.Posting) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, err := n.read(term)
	if err != nil {
		return err
	}
	i := sort.Search(len(l), func(i int) bool { return l[i].Compare(p) >= 0 })
	if i < len(l) && l[i] == p {
		return n.write(term, append(l[:i], l[i+1:]...))
	}
	return nil
}

// DeleteTerm implements Store.
func (n *naiveStore) DeleteTerm(term string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.write(term, nil)
}

// Terms implements Store.
func (n *naiveStore) Terms() ([]string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ents, err := os.ReadDir(n.dir)
	if err != nil {
		return nil, fmt.Errorf("experiments: naive store: %w", err)
	}
	// Unescape the escape character last, mirroring path's escape order.
	unescape := strings.NewReplacer("%2F", "/", "%5C", "\\", "%3A", ":", "%2E", ".", "%25", "%")
	var out []string
	for _, e := range ents {
		// Only .gz files are term blobs; TrimSuffix alone used to let
		// stray directory entries (editor droppings, tempfiles) through
		// as phantom terms.
		name, ok := strings.CutSuffix(e.Name(), ".gz")
		if !ok {
			continue
		}
		out = append(out, unescape.Replace(name))
	}
	sort.Strings(out)
	return out, nil
}

// bytesWritten is the blob bytes the store has rewritten so far.
func (n *naiveStore) bytesWritten() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.written
}

// ApplyBatch, Snapshot and Close implement Store the plainest way (see
// the type comment); Close also serves as the "snapshot's" Close.
func (n *naiveStore) ApplyBatch(b *store.Batch) error   { return b.Replay(n) }
func (n *naiveStore) Snapshot() (store.Snapshot, error) { return n, nil }
func (n *naiveStore) Close() error                      { return nil }
