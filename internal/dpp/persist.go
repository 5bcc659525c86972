package dpp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Durable DPP roots. The root blocks are the ϕ function of the paper —
// without them a restarted home peer has no idea which pseudo-keys its
// overflowed terms scattered to, even though the block postings
// themselves sit safely in the peers' durable stores. They persist as
// an append-only log: each mutation appends one record holding the
// mutated term's root, so it costs one record however many roots the
// home holds, and replay keeps each term's last record.
//
// The file starts with rootLogMagic; each record after it is
//
//	length uint32 | crc32c(payload) uint32 | payload
//
// little-endian, the payload the pseudo-key counter (uvarint) followed
// by the root in the wire codec (encodeRoot), or by nothing in a record
// that only reserves pseudo-keys (place). A record cut short, or failing
// its checksum, at the end of the file is a torn append and is dropped;
// one with bytes after it is corruption and fails the load. The log is
// rewritten as one record per live root — temporary file, fsync,
// rename, directory fsync — when it is opened and whenever it outgrows
// compactFactor times that size.

// rootLogMagic opens every root log: a file without it (an earlier
// build's dpp.json, say) is refused, not read as an empty log.
const rootLogMagic = "kadop dpp root log v1\n"

// compactFactor is how far past its live size the log grows before it
// is compacted: a record costs its own bytes plus, amortised, a third
// of them again for the rewrite.
const compactFactor = 4

const recordHeader = 8 // length, checksum

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// logFile is what the root log writes through; the crash tests
// substitute one whose writes die at a chosen byte.
type logFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// openFile opens a file for writing, created if missing; flag adds
// os.O_APPEND or os.O_TRUNC.
type openFile func(name string, flag int) (logFile, error)

func osOpen(name string, flag int) (logFile, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|flag, 0o644)
}

var errLogClosed = errors.New("dpp: root log closed")

// rootLog is a home's open root log. Its methods run under the
// manager's wmu, which orders every record.
type rootLog struct {
	path string
	open openFile
	f    logFile
	size int64 // bytes in the file
	// live is each term's last record size, and liveSize their sum plus
	// the header and counter record: the size of the compacted log.
	live     map[string]int64
	liveSize int64
	err      error // sticky: no record is written after a failed one
}

// openRootLog replays the log at path — a missing file is an empty
// home — then compacts it, which drops a torn tail, and opens it for
// appending. It returns the roots and the pseudo-key counter.
func openRootLog(path string, open openFile) (*rootLog, map[string]*Root, int, error) {
	roots, next := map[string]*Root{}, 0
	data, err := os.ReadFile(path)
	if err == nil {
		next, err = replay(data, roots)
	} else if errors.Is(err, os.ErrNotExist) {
		err = nil
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("dpp: root log %s: %w", path, err)
	}
	l := &rootLog{path: path, open: open}
	if err := l.compact(roots, next); err != nil {
		return nil, nil, 0, err
	}
	return l, roots, next, nil
}

// replay applies the records of a log file to roots, each term's last
// record winning, and returns the last counter.
func replay(data []byte, roots map[string]*Root) (int, error) {
	if !bytes.HasPrefix(data, []byte(rootLogMagic)) {
		return 0, errors.New("not a root log: rebuild the data directory by republishing")
	}
	next := 0
	for off := len(rootLogMagic); off < len(data); {
		rest := data[off:]
		n := recordHeader
		if len(rest) >= recordHeader {
			n += int(binary.LittleEndian.Uint32(rest))
		}
		if n > len(rest) {
			break // torn append: cut short
		}
		payload := rest[recordHeader:n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			if n == len(rest) {
				break // torn append: the last record, garbled
			}
			return 0, fmt.Errorf("record at byte %d fails its checksum", off)
		}
		d := &decoder{buf: payload}
		next = int(d.uvarint())
		if d.err == nil && d.pos < len(payload) {
			var r *Root
			if r, d.err = decodeRoot(payload[d.pos:]); d.err == nil {
				roots[r.Term] = r
			}
		}
		if d.err != nil {
			return 0, fmt.Errorf("record at byte %d: %w", off, d.err)
		}
		off += n
	}
	return next, nil
}

// appendRecord frames one record, of r (nil: the counter alone), onto buf.
func appendRecord(buf []byte, r *Root, next int) []byte {
	start := len(buf)
	buf = binary.AppendUvarint(append(buf, make([]byte, recordHeader)...), uint64(next))
	if r != nil {
		buf = append(buf, encodeRoot(r)...)
	}
	payload := buf[start+recordHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// append writes and syncs one record — r's root, or the counter alone
// when r is nil — then compacts the log to roots if it has outgrown its
// live size. Without a log it is free, so callers call it
// unconditionally.
func (l *rootLog) append(roots map[string]*Root, r *Root, next int) error {
	if l == nil {
		return nil
	}
	if l.err != nil {
		return l.err
	}
	rec := appendRecord(nil, r, next)
	_, err := l.f.Write(rec)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.err = fmt.Errorf("dpp: root log %s: %w", l.path, err)
		return l.err
	}
	l.size += int64(len(rec))
	if r != nil {
		l.liveSize += int64(len(rec)) - l.live[r.Term]
		l.live[r.Term] = int64(len(rec))
	}
	if l.size > compactFactor*l.liveSize {
		return l.compact(roots, next)
	}
	return nil
}

// compact rewrites the log as a record of the counter followed by one
// record per root, through a synced temporary file renamed over it, and
// reopens it for appending.
func (l *rootLog) compact(roots map[string]*Root, next int) error {
	buf := appendRecord([]byte(rootLogMagic), nil, next)
	live := make(map[string]int64, len(roots))
	for term, r := range roots {
		n := len(buf)
		buf = appendRecord(buf, r, next)
		live[term] = int64(len(buf) - n)
	}
	tmp := l.path + ".tmp"
	f, err := l.open(tmp, os.O_TRUNC)
	if err == nil {
		if _, err = f.Write(buf); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err == nil {
		err = syncDir(filepath.Dir(l.path))
	}
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	if err == nil {
		l.f, err = l.open(l.path, os.O_APPEND)
	}
	if err != nil {
		l.err = fmt.Errorf("dpp: compact root log %s: %w", l.path, err)
		return l.err
	}
	l.size, l.live, l.liveSize = int64(len(buf)), live, int64(len(buf))
	return nil
}

// syncDir makes a rename in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// close closes the log; later records are refused.
func (l *rootLog) close() error {
	if l == nil || l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f, l.err = nil, errLogClosed
	return err
}
