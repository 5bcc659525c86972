package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"kadop/internal/postings"
	"kadop/internal/sid"
)

func mustPosting(start uint32) sid.Posting {
	return sid.Posting{Peer: 1, Doc: 1, SID: sid.SID{Start: start, End: start + 1, Level: 1}}
}

// TestWALTornTailDiscarded abandons a handle mid-life (so the WAL holds
// replayable transactions), appends garbage to the log, and checks that
// recovery replays the committed prefix and discards the garbage tail.
func TestWALTornTailDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.bt")
	bt, err := OpenBTree(path)
	if err != nil {
		t.Fatal(err)
	}
	want := postings.List{mustPosting(1), mustPosting(3), mustPosting(5)}
	if err := bt.Append("l:a", want); err != nil {
		t.Fatal(err)
	}
	// Abandon without Close: the WAL keeps the committed transactions.
	wf, err := os.OpenFile(walPath(path), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Write([]byte("\x01garbage torn tail garbage")); err != nil {
		t.Fatal(err)
	}
	wf.Close()

	rec, err := OpenBTree(path)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer rec.Close()
	got, err := rec.Get("l:a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d postings, want %d", len(got), len(want))
	}
	// The garbage tail must be gone: recovery checkpoints and truncates.
	st, err := os.Stat(walPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Fatalf("WAL not truncated after recovery: %d bytes", st.Size())
	}
}

// TestPageChecksumDetectsCorruption flips a byte inside a data page and
// checks the CRC32 footer turns the silent corruption into an error.
func TestPageChecksumDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.bt")
	bt, err := OpenBTree(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.Append("l:a", postings.List{mustPosting(1)}); err != nil {
		t.Fatal(err)
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}

	// Page 0 is meta; the root leaf is page 1. Flip a payload byte.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], pageSize+20); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], pageSize+20); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec, err := OpenBTree(path)
	if err != nil {
		t.Fatalf("open after data-page corruption should succeed (meta is intact): %v", err)
	}
	defer rec.Close()
	if _, err := rec.Get("l:a"); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("Get on corrupted page: err = %v, want checksum mismatch", err)
	}
}

// TestCorruptMetaNoWALFailsOpen corrupts the meta page of a cleanly
// closed tree (empty WAL) and checks the open fails loudly instead of
// silently serving an empty tree.
func TestCorruptMetaNoWALFailsOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.bt")
	bt, err := OpenBTree(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.Append("l:a", postings.List{mustPosting(1)}); err != nil {
		t.Fatal(err)
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, 10); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := OpenBTree(path); err == nil {
		t.Fatal("open with corrupt meta and empty WAL should fail")
	}
}

// TestV1FileRejected checks the pre-WAL magic is recognised and reported
// as needing a rebuild rather than parsed as garbage.
func TestV1FileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.bt")
	page := make([]byte, pageSize)
	copy(page, "KADOPBT1")
	if err := os.WriteFile(path, page, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenBTree(path)
	if err == nil || !strings.Contains(err.Error(), "v1") {
		t.Fatalf("v1 file: err = %v, want v1 rejection", err)
	}
}

// TestV2FileRejected checks that a file of the one-key-per-posting
// format — a checksum-valid KADOPBT2 meta page — is reported as needing
// a rebuild rather than read as runs.
func TestV2FileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.bt")
	meta := make([]byte, pageSize)
	copy(meta, "KADOPBT2")
	binary.LittleEndian.PutUint32(meta[8:], 1)  // root
	binary.LittleEndian.PutUint32(meta[12:], 1) // npages
	binary.LittleEndian.PutUint32(meta[pageCRCOff:], crc32.Checksum(meta[:pageCRCOff], castagnoli))
	if err := os.WriteFile(path, meta, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenBTree(path)
	if err == nil || !strings.Contains(err.Error(), "v2") || !strings.Contains(err.Error(), "rebuild it by republishing") {
		t.Fatalf("v2 file: err = %v, want the v2 rebuild error", err)
	}
}

// TestV2WALRejected: the WAL has no version of its own, so a v2 tree
// that crashed mid-checkpoint — a torn meta page, a log of v2 leaf
// images — must be refused with the rebuild error by the page type of
// its images, not replayed into the v3 tree. The page file is left as
// it was.
func TestV2WALRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2wal.bt")
	// The v2 leaf: type 1, one key per posting, no values.
	leaf := make([]byte, pageSize)
	leaf[0] = pageLeafV2
	binary.LittleEndian.PutUint16(leaf[1:], 2)
	off := 7
	for _, p := range []sid.Posting{mustPosting(1), mustPosting(3)} {
		k, err := encodeKey("l:a", p)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(leaf[off:], uint16(len(k)))
		off += 2 + copy(leaf[off+2:], k)
	}
	binary.LittleEndian.PutUint32(leaf[pageCRCOff:], crc32.Checksum(leaf[:pageCRCOff], castagnoli))
	rec := append(binary.LittleEndian.AppendUint32(nil, 1), leaf...)
	log := walAppendRecord(nil, walRecPage, rec)
	var commit [walCommitPayload]byte
	binary.LittleEndian.PutUint64(commit[:], 1)
	binary.LittleEndian.PutUint32(commit[8:], 1)
	binary.LittleEndian.PutUint32(commit[12:], 1)
	log = walAppendRecord(log, walRecCommit, commit[:])
	// A meta page torn mid-write: the magic's first bytes, then zeros.
	file := make([]byte, 2*pageSize)
	copy(file, "KADO")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(path), log, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenBTree(path)
	if err == nil || !strings.Contains(err.Error(), "v2") || !strings.Contains(err.Error(), "rebuild it by republishing") {
		t.Fatalf("torn meta + v2 WAL: err = %v, want the v2 rebuild error", err)
	}
	if got, err := os.ReadFile(path); err != nil || !reflect.DeepEqual(got, file) {
		t.Fatalf("the refused open changed the page file (err %v)", err)
	}
}

// TestParseFsyncPolicyRoundTrip pins the policy spelling used by flags
// and configs.
func TestParseFsyncPolicyRoundTrip(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOff} {
		got, err := ParseFsyncPolicy(p.String())
		if err != nil {
			t.Fatalf("round-trip %v: %v", p, err)
		}
		if got != p {
			t.Fatalf("round-trip %v: got %v", p, got)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseFsyncPolicy(sometimes) should fail")
	}
}

// TestErrClosedOnEveryMethod pins the use-after-close guard: every Store
// method (and a second Close) returns ErrClosed instead of leaking raw
// OS errors from a dead file descriptor.
func TestErrClosedOnEveryMethod(t *testing.T) {
	bt, err := OpenBTree(filepath.Join(t.TempDir(), "closed.bt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.Append("l:a", postings.List{mustPosting(1)}); err != nil {
		t.Fatal(err)
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bt.Close(); err != ErrClosed {
		t.Fatalf("second Close: err = %v, want ErrClosed", err)
	}
	checks := map[string]error{
		"Append":     bt.Append("l:a", postings.List{mustPosting(3)}),
		"Delete":     bt.Delete("l:a", mustPosting(1)),
		"DeleteTerm": bt.DeleteTerm("l:a"),
		"Scan":       bt.Scan("l:a", sid.MinPosting, func(sid.Posting) bool { return true }),
		"Checkpoint": bt.Checkpoint(),
	}
	if _, err := bt.Get("l:a"); err != ErrClosed {
		t.Fatalf("Get after close: err = %v, want ErrClosed", err)
	}
	if _, err := bt.Count("l:a"); err != ErrClosed {
		t.Fatalf("Count after close: err = %v, want ErrClosed", err)
	}
	if _, err := bt.Terms(); err != ErrClosed {
		t.Fatalf("Terms after close: err = %v, want ErrClosed", err)
	}
	for name, err := range checks {
		if err != ErrClosed {
			t.Fatalf("%s after close: err = %v, want ErrClosed", name, err)
		}
	}
	if pages, height := bt.Stats(); pages != 0 || height != 0 {
		t.Fatalf("Stats after close: (%d, %d), want zeros", pages, height)
	}
}

// TestReopenContinuesLSN checks the log sequence number survives a
// close/reopen cycle, so post-restart commits stay newer than the
// checkpoint and recovery ordering remains monotone.
func TestReopenContinuesLSN(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lsn.bt")
	bt, err := OpenBTree(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 10; i++ {
		if err := bt.Append("l:a", postings.List{mustPosting(2*i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	before := bt.pager.lsn
	if before == 0 {
		t.Fatal("lsn did not advance")
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
	bt2, err := OpenBTree(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bt2.Close()
	if bt2.pager.lsn != before {
		t.Fatalf("lsn after reopen: %d, want %d", bt2.pager.lsn, before)
	}
	if err := bt2.Append("l:a", postings.List{mustPosting(101)}); err != nil {
		t.Fatal(err)
	}
	if bt2.pager.lsn <= before {
		t.Fatalf("lsn after post-reopen commit: %d, want > %d", bt2.pager.lsn, before)
	}
}

// TestFsyncPolicies drives the same workload under each policy and
// checks a clean close/reopen preserves everything regardless.
func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "pol.bt")
			bt, err := OpenBTreeOptions(path, Options{Fsync: policy, fsyncEvery: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			want := postings.List{mustPosting(1), mustPosting(3), mustPosting(5)}
			if err := bt.Append("l:a", want); err != nil {
				t.Fatal(err)
			}
			if err := bt.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := OpenBTree(path)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			got, err := rec.Get("l:a")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("policy %v: %d postings after reopen, want %d", policy, len(got), len(want))
			}
		})
	}
}
