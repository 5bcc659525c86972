package reclog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

const testMagic = "reclog test v2\n"

// load opens the log at path through open and returns it with the
// state it replayed.
func load(path string, open OpenFunc) (*Log, map[string]string, error) {
	state := map[string]string{}
	l, err := Open(path, testMagic, open, func(key string, value []byte) error {
		state[key] = string(value)
		return nil
	})
	return l, state, err
}

// apply plays recs onto state as the log's replay does.
func apply(state map[string]string, recs []Record) {
	for _, r := range recs {
		if r.Delete {
			delete(state, r.Key)
		} else {
			state[r.Key] = string(r.Value)
		}
	}
}

func put(key, value string) Record { return Record{Key: key, Value: []byte(value)} }

// TestLogReplaysLastRecordPerKey appends puts, overwrites and deletes,
// several to one Append, and reopens: each key holds its last put, a
// deleted key none, an empty value stays a value.
func TestLogReplaysLastRecordPerKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	l, state, err := load(path, OSOpen)
	if err != nil || len(state) != 0 {
		t.Fatalf("new log: %v, %v", state, err)
	}
	batches := [][]Record{
		{put("a", "1"), put("b", "2"), put("c", "")},
		{put("a", "3")},
		{{Key: "b", Delete: true}, put("d", "4"), put("b", "5"), {Key: "d", Delete: true}},
		{{Key: "absent", Delete: true}},
	}
	want := map[string]string{}
	for _, recs := range batches {
		if err := l.Append(recs...); err != nil {
			t.Fatal(err)
		}
		apply(want, recs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(put("a", "late")); err == nil {
		t.Fatal("append after Close succeeded")
	}
	_, got, err := load(path, OSOpen)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
}

// TestLogOpenRewritesOnlyDeadRecords opens a log holding only live
// records, which writes nothing, and one holding a superseded record,
// which compacts it to its live records.
func TestLogOpenRewritesOnlyDeadRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	l, _, err := load(path, OSOpen)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(put("a", "1"), put("b", "2")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	live, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var count countingLog
	if l, _, err = load(path, count.open); err != nil {
		t.Fatal(err)
	}
	if count.written != 0 {
		t.Fatalf("opening a log of live records wrote %d bytes", count.written)
	}
	if err := l.Append(put("a", "3")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if l, _, err = load(path, count.open); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if count.written == 0 || len(data) != len(live) {
		t.Fatalf("open over a superseded record wrote %d bytes, left %d; want a rewrite to %d", count.written, len(data), len(live))
	}
}

// TestLogCompactionBoundsSize overwrites a few keys many times: after
// every append the file is at most compactFactor times its live size,
// and the compacted log replays the last values.
func TestLogCompactionBoundsSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	l, _, err := load(path, OSOpen)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := range 2000 {
		rec := put(fmt.Sprintf("k%d", i%7), fmt.Sprintf("value %d %s", i, bytes.Repeat([]byte{'x'}, i%50)))
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		apply(want, []Record{rec})
		if l.size > compactFactor*l.liveSize {
			t.Fatalf("append %d: log of %d bytes, live %d", i, l.size, l.liveSize)
		}
	}
	l.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 4096 {
		t.Fatalf("7 keys overwritten 2000 times left a %d-byte log", fi.Size())
	}
	if _, got, err := load(path, OSOpen); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v (%v), want %v", got, err, want)
	}
}

// TestLogCorruptionFailsLoudly: a file without the magic, a record
// failing its checksum before the last one, a bad record kind and an
// error from the caller's apply each fail the open and leave the file
// as it was.
func TestLogCorruptionFailsLoudly(t *testing.T) {
	good := []byte(testMagic)
	for i := range 5 {
		good = appendRecord(good, put(fmt.Sprintf("k%d", i), "value"))
	}
	second := len(testMagic) + (len(good)-len(testMagic))/5 + header + 3
	// A record of kind 7 under valid checksums, then a good one.
	badKind := append([]byte(testMagic), make([]byte, header)...)
	badKind = append(badKind, 7, 1, 'k')
	frame(badKind[len(testMagic):])
	badKind = appendRecord(badKind, put("k2", "v"))
	for _, tc := range []struct {
		name  string
		data  []byte
		apply func(string, []byte) error
	}{
		{"no magic", []byte(`{"kind":"doc"}` + "\n"), nil},
		{"record 2 of 5 garbled", flip(good, second), nil},
		{"bad kind", badKind, nil},
		{"apply fails", good, func(string, []byte) error { return errors.New("bad value") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "a.log")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			apply := tc.apply
			if apply == nil {
				apply = func(string, []byte) error { return nil }
			}
			if l, err := Open(path, testMagic, OSOpen, apply); err == nil {
				l.Close()
				t.Fatal("open succeeded")
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, tc.data) {
				t.Fatalf("failed open changed the file (%v)", err)
			}
		})
	}
}

// TestLogCorruptLengthFailsLoudly flips one bit of the second of five
// records' length, so that it points past the end of the file: the
// header's own checksum tells that from an append torn short, and the
// open fails naming the file and leaves it as it was, instead of
// dropping the four records after it as a torn tail.
func TestLogCorruptLengthFailsLoudly(t *testing.T) {
	data := []byte(testMagic)
	var offs []int
	for i := range 5 {
		offs = append(offs, len(data))
		data = appendRecord(data, put(fmt.Sprintf("k%d", i), "value"))
	}
	bad := bytes.Clone(data)
	bad[offs[1]+2] ^= 1 // the length's third byte: 64 KiB more
	if n := int(binary.LittleEndian.Uint32(bad[offs[1]:])); offs[1]+header+n <= len(bad) {
		t.Fatalf("the flipped length %d still ends within the file", n)
	}
	path := filepath.Join(t.TempDir(), "a.log")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	l, state, err := load(path, OSOpen)
	if err == nil {
		l.Close()
		t.Fatalf("open succeeded, replaying %v", state)
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("open error %q does not name the file", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, bad) {
		t.Fatalf("failed open changed the file (%v)", err)
	}
}

func flip(b []byte, i int) []byte {
	b = bytes.Clone(b)
	b[i] ^= 0xff
	return b
}

// TestLogConcurrentAppends has four writers append to their own keys
// at once, through compactions: the reopened log holds each key's last
// value.
func TestLogConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	l, _, err := load(path, OSOpen)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 100 {
				key := fmt.Sprintf("w%d:k%d", w, i%3)
				if err := l.Append(put(key, strconv.Itoa(i)), Record{Key: fmt.Sprintf("w%d:gone", w), Delete: true}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for w := range 4 {
		for i := range 100 {
			want[fmt.Sprintf("w%d:k%d", w, i%3)] = strconv.Itoa(i)
		}
	}
	if _, got, err := load(path, OSOpen); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v (%v), want %v", got, err, want)
	}
}

// ---- crash injection -------------------------------------------------
//
// crashState is a write budget shared by every file the log opens. Once
// it runs out, the write in flight is clipped at the crash byte — a
// torn write — and every later write and sync fails: the process is
// dead.

var errCrashed = errors.New("injected crash")

type crashState struct {
	budget int64
	dead   bool
}

func (st *crashState) open(name string, flag int) (File, error) {
	f, err := OSOpen(name, flag)
	return &crashFile{File: f, st: st}, err
}

type crashFile struct {
	File
	st *crashState
}

func (c *crashFile) Write(p []byte) (int, error) {
	if c.st.dead {
		return 0, errCrashed
	}
	if int64(len(p)) <= c.st.budget {
		c.st.budget -= int64(len(p))
		return c.File.Write(p)
	}
	n := int(c.st.budget)
	c.st.dead, c.st.budget = true, 0
	c.File.Write(p[:n])
	return n, errCrashed
}

func (c *crashFile) Sync() error {
	if c.st.dead {
		return errCrashed
	}
	return c.File.Sync()
}

// countingLog counts the bytes written through the files it opens.
type countingLog struct{ written int64 }

func (c *countingLog) open(name string, flag int) (File, error) {
	f, err := OSOpen(name, flag)
	return &countingFile{File: f, c: c}, err
}

type countingFile struct {
	File
	c *countingLog
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.written += int64(n)
	return n, err
}

// crashTrials is the per-test budget of injected crash points, raised
// through KADOP_CRASH_TRIALS by the crash-smoke make target.
func crashTrials(t *testing.T, def int) int {
	if s := os.Getenv("KADOP_CRASH_TRIALS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad KADOP_CRASH_TRIALS=%q", s)
		}
		return n
	}
	if testing.Short() {
		return def / 4
	}
	return def
}

// script makes a seeded run of appends of one to four records over a
// few keys — puts of values up to a few hundred bytes, and deletes —
// so the log compacts every few appends.
func script(seed int64, n int) [][]Record {
	rng := rand.New(rand.NewSource(seed))
	ops := make([][]Record, n)
	for i := range ops {
		for range 1 + rng.Intn(4) {
			key := fmt.Sprintf("k%d", rng.Intn(6))
			if rng.Intn(5) == 0 {
				ops[i] = append(ops[i], Record{Key: key, Delete: true})
				continue
			}
			ops[i] = append(ops[i], put(key, fmt.Sprintf("%d:%s", i, bytes.Repeat([]byte{byte('a' + i%26)}, rng.Intn(300)))))
		}
	}
	return ops
}

// run opens a log through open and appends ops to it; it returns how
// many appends succeeded, or -1 if the open itself failed.
func run(path string, open OpenFunc, ops [][]Record) int {
	l, _, err := load(path, open)
	if err != nil {
		return -1
	}
	for i, recs := range ops {
		if l.Append(recs...) != nil {
			return i
		}
	}
	l.Close()
	return len(ops)
}

// TestCrashRecordLog kills a log's writes at a seeded byte offset
// anywhere in a script's history — mid record, mid multi-record
// append, mid compaction, at the open's own compaction — and reopens
// it: the state recovered is that of the committed appends followed by
// a prefix of the one in flight, each record whole. Some trials crash
// the recovering open too before the final one.
func TestCrashRecordLog(t *testing.T) {
	trials := crashTrials(t, 48)
	for trial := range trials {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			ops := script(int64(900+trial/6), 40) // several crash points per script
			dir := t.TempDir()
			var count countingLog
			if n := run(filepath.Join(dir, "dry.log"), count.open, ops); n != len(ops) {
				t.Fatalf("dry run stopped at append %d", n)
			}

			rng := rand.New(rand.NewSource(int64(7919*trial + 29)))
			crashAt := rng.Int63n(count.written) + 1
			path := filepath.Join(dir, "crash.log")
			done := run(path, (&crashState{budget: crashAt}).open, ops)
			if trial%5 == 4 {
				run(path, (&crashState{budget: rng.Int63n(crashAt) + 1}).open, nil)
			}

			_, got, err := load(path, OSOpen)
			if err != nil {
				t.Fatalf("crash@%d: recovery open: %v", crashAt, err)
			}
			committed := map[string]string{}
			for _, recs := range ops[:max(done, 0)] {
				apply(committed, recs)
			}
			if reflect.DeepEqual(got, committed) {
				return
			}
			if done >= 0 && done < len(ops) {
				inflight := ops[done]
				for k := 1; k <= len(inflight); k++ {
					want := maps.Clone(committed)
					apply(want, inflight[:k])
					if reflect.DeepEqual(got, want) {
						return
					}
				}
			}
			t.Fatalf("crash@%d after %d appends: recovered %v, want the committed %v or with a prefix of the append in flight",
				crashAt, done, got, committed)
		})
	}
}
