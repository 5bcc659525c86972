package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// FsyncPolicy selects when the write-ahead log is fsynced.
//
// The policy trades publish throughput for the durability window: with
// FsyncAlways a successful Append survives any crash; with
// FsyncInterval up to fsyncEvery of committed operations may be lost
// (but the store always recovers to a consistent committed prefix);
// with FsyncOff the window is whatever the OS page cache holds. All
// three policies keep the same write ordering, so a crash never
// corrupts the tree — it only bounds how much of the recent history
// survives.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs the WAL on every commit (one Store operation).
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval groups commits: a background syncer fsyncs the WAL
	// every Options.fsyncEvery, so a crash loses at most that window.
	FsyncInterval
	// FsyncOff never fsyncs; the OS decides when bytes reach disk.
	FsyncOff
)

// String renders the policy in the form ParseFsyncPolicy accepts.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("fsync(%d)", int(p))
}

// ParseFsyncPolicy parses "always", "interval" or "off".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always|interval|off)", s)
}

// Options tune the durability machinery of a disk B+-tree.
type Options struct {
	// Fsync selects the WAL fsync policy (default FsyncAlways).
	Fsync FsyncPolicy

	// fsyncEvery is the FsyncInterval group-commit window (default
	// 50ms); ignored under the other policies. The fsync-policy tests
	// shorten it.
	fsyncEvery time.Duration
	// checkpointBytes triggers a checkpoint — dirty pages flushed to
	// the page file, meta fenced behind them, WAL truncated — once the
	// WAL exceeds this size (default 4 MiB). The crash and batch tests
	// lower it so their runs cross checkpoints.
	checkpointBytes int64
	// open substitutes the file opener; the crash-injection tests use
	// it to kill writes at arbitrary byte offsets. Nil means the real
	// filesystem.
	open fileOpener
}

func (o Options) withDefaults() Options {
	if o.fsyncEvery <= 0 {
		o.fsyncEvery = 50 * time.Millisecond
	}
	if o.checkpointBytes <= 0 {
		o.checkpointBytes = 4 << 20
	}
	if o.open == nil {
		o.open = openOSFile
	}
	return o
}

// file is the slice of *os.File the pager and WAL consume. The crash
// harness substitutes a fault-injecting implementation whose writes die
// mid-stream at a chosen byte offset.
type file interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
	Size() (int64, error)
}

type fileOpener func(path string) (file, error)

// tallyingFile adds the bytes written through it to n.
type tallyingFile struct {
	file
	n *atomic.Int64
}

func (f tallyingFile) WriteAt(b []byte, off int64) (int, error) {
	n, err := f.file.WriteAt(b, off)
	f.n.Add(int64(n))
	return n, err
}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func openOSFile(path string) (file, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// castagnoli is the CRC32-C table shared by page checksums and WAL
// record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WAL record framing: kind(1) | payloadLen(4) | payload | crc32(4),
// where the checksum covers kind, length and payload. A record whose
// frame does not parse — short, bad kind, bad checksum — marks the torn
// tail of the log; recovery discards it and everything after it.
const (
	walRecPage   = 1 // payload: pageID(4) | page image (pageSize)
	walRecCommit = 2 // payload: lsn(8) | root(4) | npages(4)

	walFrameOverhead = 1 + 4 + 4
	walCommitPayload = 16
)

// walAppendRecord frames one record into buf.
func walAppendRecord(buf []byte, kind byte, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, kind)
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(payload)))
	buf = append(buf, l[:]...)
	buf = append(buf, payload...)
	sum := crc32.Checksum(buf[start:], castagnoli)
	var c [4]byte
	binary.LittleEndian.PutUint32(c[:], sum)
	return append(buf, c[:]...)
}

// walParseRecord parses the first record of data. ok is false when the
// data does not begin with a complete, checksum-valid record.
func walParseRecord(data []byte) (kind byte, payload []byte, size int, ok bool) {
	if len(data) < walFrameOverhead {
		return 0, nil, 0, false
	}
	kind = data[0]
	if kind != walRecPage && kind != walRecCommit {
		return 0, nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(data[1:]))
	size = walFrameOverhead + n
	if n < 0 || len(data) < size {
		return 0, nil, 0, false
	}
	want := binary.LittleEndian.Uint32(data[size-4:])
	if crc32.Checksum(data[:size-4], castagnoli) != want {
		return 0, nil, 0, false
	}
	return kind, data[5 : 5+n], size, true
}

// wal is the write-ahead log of one B+-tree: an append-only file of
// page-image records fenced by LSN-stamped commit records. The pager
// appends one transaction per Store operation; the fsync policy decides
// when appended transactions become durable. A checkpoint truncates the
// log once the page file durably holds everything the log describes.
type wal struct {
	mu     sync.Mutex
	f      file
	path   string
	size   int64 // append offset
	synced bool  // no appended bytes awaiting fsync
	err    error // sticky I/O error; the log refuses further appends

	policy FsyncPolicy
	stop   chan struct{}
	done   chan struct{}
}

// openWAL opens (or creates) the log file. The caller replays its
// contents before appending (see pager.recover).
func openWAL(path string, o Options) (*wal, error) {
	f, err := o.open(path)
	if err != nil {
		return nil, fmt.Errorf("store: wal: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: wal: %w", err)
	}
	w := &wal{f: f, path: path, size: size, synced: true, policy: o.Fsync}
	if o.Fsync == FsyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.syncLoop(o.fsyncEvery)
	}
	return w, nil
}

// syncLoop is the FsyncInterval group-commit worker: every period it
// fsyncs whatever commits accumulated, so one fsync covers them all.
func (w *wal) syncLoop(every time.Duration) {
	defer close(w.done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			if !w.synced && w.err == nil {
				if err := w.f.Sync(); err != nil {
					w.err = fmt.Errorf("store: wal: sync: %w", err)
				} else {
					w.synced = true
				}
			}
			w.mu.Unlock()
		}
	}
}

// readAll returns the log's full contents for replay.
func (w *wal) readAll() ([]byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.size == 0 {
		return nil, nil
	}
	buf := make([]byte, w.size)
	n, err := w.f.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("store: wal: read: %w", err)
	}
	return buf[:n], nil
}

// appendTx appends one framed transaction (page records plus its commit
// record, pre-rendered into buf) and applies the fsync policy. The
// transaction is a single write, so a crash tears at most its tail —
// which the frame checksums catch at recovery.
func (w *wal) appendTx(buf []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if _, err := w.f.WriteAt(buf, w.size); err != nil {
		w.err = fmt.Errorf("store: wal: append: %w", err)
		return w.err
	}
	w.size += int64(len(buf))
	w.synced = false
	if w.policy == FsyncAlways {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("store: wal: sync: %w", err)
			return w.err
		}
		w.synced = true
	}
	return nil
}

// bytes reports the current log size.
func (w *wal) bytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// reset truncates the log after a checkpoint. The caller must have
// durably fenced the page file and meta page first.
func (w *wal) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.f.Truncate(0); err != nil {
		w.err = fmt.Errorf("store: wal: truncate: %w", err)
		return w.err
	}
	w.size = 0
	w.synced = true
	return nil
}

// close stops the group-commit worker, fsyncs pending appends (unless
// the policy is off) and closes the file.
func (w *wal) close() error {
	if w.stop != nil {
		close(w.stop)
		<-w.done
		w.stop = nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var err error
	if w.err == nil && !w.synced && w.policy != FsyncOff {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
