// Package reclog is the durable keyed record log in which a peer keeps
// its state outside the index: the DPP roots of the terms it is home
// for (dpp.log), and the documents it publishes and directory entries
// it holds (state.log). A record puts a value under a key or deletes
// the key, and replay keeps each key's last record.
//
// The file starts with a magic string naming its user; each record
// after it is
//
//	length uint32 | crc32c(length) uint32 | crc32c(payload) uint32 | payload
//
// little-endian, the payload a kind byte (0 put, 1 delete), the key
// (uvarint length, bytes) and the value. A record cut short, or failing
// its payload checksum, at the end of the file is a torn append and is
// dropped; one with bytes after it is corruption and fails the open. A
// length failing its own checksum is corruption wherever it lies: an
// append torn within the header leaves it short, not garbled, and a
// garbled length could otherwise point past the end of the file and
// pass for a torn tail, dropping every record after it. Compaction
// copies each key's last put into a temporary file, synced and renamed
// over the log. It runs when the log opens holding anything else, and
// whenever the log outgrows compactFactor times its live size.
package reclog

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// compactFactor is how far past its live size the log grows before it
// is compacted: a record costs its own bytes plus, amortised, a third
// of them again for the copy.
const compactFactor = 4

const header = 12 // length, its checksum, the payload's checksum

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one entry of a log: Value put under Key, or with Delete
// set, Key removed.
type Record struct {
	Key    string
	Value  []byte
	Delete bool
}

// File is what a log writes through; the crash tests substitute one
// whose writes die at a chosen byte.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// OpenFunc opens a file for writing, created if missing; flag adds
// os.O_APPEND and os.O_TRUNC.
type OpenFunc func(name string, flag int) (File, error)

// OSOpen is the OpenFunc of the operating system's files.
func OSOpen(name string, flag int) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|flag, 0o644)
}

// span is where a record lies in the file, header included.
type span struct{ off, n int64 }

// Log is an open record log. Its methods are safe for concurrent use,
// and a nil *Log is a memory-only one: Append and Close do nothing.
type Log struct {
	path, magic string
	open        OpenFunc

	mu   sync.Mutex
	f    File
	size int64 // bytes in the file
	// live is where each key's last put lies, and liveSize those
	// records' bytes plus the magic: the size of the compacted log.
	live     map[string]span
	liveSize int64
	err      error // sticky: no record is written after a failed one
}

// Open replays the log at path, a missing file being an empty log: it
// calls apply with each live record in file order, the value bytes
// apply's only until it returns. It then opens the log for appending,
// compacting it first if it holds anything but live records. A file
// without the magic at its head, a corrupt record or an error from
// apply fails the open and leaves the file untouched.
func Open(path, magic string, open OpenFunc, apply func(key string, value []byte) error) (*Log, error) {
	l := &Log{path: path, magic: magic, open: open, live: map[string]span{}, liveSize: int64(len(magic))}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		err = nil
	} else if err == nil {
		err = l.replay(data, apply)
	}
	if err != nil {
		return nil, fmt.Errorf("reclog: %s: %w", path, err)
	}
	if data != nil && l.size == l.liveSize {
		if l.f, err = open(path, os.O_APPEND); err != nil {
			return nil, fmt.Errorf("reclog: %s: %w", path, err)
		}
	} else if err := l.compact(); err != nil {
		return nil, err
	}
	return l, nil
}

// replay indexes the records of a log file up to a torn tail, then
// applies the live ones.
func (l *Log) replay(data []byte, apply func(key string, value []byte) error) error {
	if !bytes.HasPrefix(data, []byte(l.magic)) {
		return fmt.Errorf("does not start with %q, so it is no log of this build: rebuild the data directory by republishing", l.magic)
	}
	l.size = int64(len(data))
	for off := len(l.magic); off < len(data); {
		rest := data[off:]
		if len(rest) < header {
			break // torn append: cut short within the header
		}
		if crc32.Checksum(rest[:4], castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			return fmt.Errorf("record at byte %d: its length fails its checksum", off)
		}
		n := header + int(binary.LittleEndian.Uint32(rest))
		if n > len(rest) {
			break // torn append: cut short
		}
		payload := rest[header:n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[8:]) {
			if n == len(rest) {
				break // torn append: the last record, garbled
			}
			return fmt.Errorf("record at byte %d fails its checksum", off)
		}
		rec, err := decode(payload)
		if err != nil {
			return fmt.Errorf("record at byte %d: %w", off, err)
		}
		l.index(rec, span{int64(off), int64(n)})
		off += n
	}
	for _, key := range l.byOffset() {
		s := l.live[key]
		rec, _ := decode(data[s.off+header : s.off+s.n])
		if err := apply(key, rec.Value); err != nil {
			return fmt.Errorf("record %q: %w", key, err)
		}
	}
	return nil
}

// appendRecord frames rec onto buf.
func appendRecord(buf []byte, rec Record) []byte {
	start := len(buf)
	kind := byte(0)
	if rec.Delete {
		kind = 1
	}
	buf = append(append(buf, make([]byte, header)...), kind)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Key)))
	buf = append(append(buf, rec.Key...), rec.Value...)
	frame(buf[start:])
	return buf
}

// frame fills in the header of the record rec, whose payload follows it.
func frame(rec []byte) {
	binary.LittleEndian.PutUint32(rec, uint32(len(rec)-header))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(rec[:4], castagnoli))
	binary.LittleEndian.PutUint32(rec[8:], crc32.Checksum(rec[header:], castagnoli))
}

// decode reads a record's payload.
func decode(payload []byte) (Record, error) {
	if len(payload) == 0 || payload[0] > 1 {
		return Record{}, errors.New("bad record kind")
	}
	n, sz := binary.Uvarint(payload[1:])
	if sz <= 0 || n > uint64(len(payload)-1-sz) {
		return Record{}, errors.New("bad key length")
	}
	end := 1 + sz + int(n)
	return Record{Key: string(payload[1+sz : end]), Value: payload[end:], Delete: payload[0] == 1}, nil
}

// index notes rec, lying at s: a put becomes its key's live record, a
// delete leaves the key none.
func (l *Log) index(rec Record, s span) {
	l.liveSize -= l.live[rec.Key].n
	if rec.Delete {
		delete(l.live, rec.Key)
		return
	}
	l.live[rec.Key] = s
	l.liveSize += s.n
}

// byOffset returns the live keys in file order.
func (l *Log) byOffset() []string {
	keys := make([]string, 0, len(l.live))
	for key := range l.live {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b string) int { return cmp.Compare(l.live[a].off, l.live[b].off) })
	return keys
}

// Append writes recs with one write and one fsync, then compacts the
// log if it has outgrown its live size. A crash mid-write keeps a
// prefix of recs, each record whole. After a failed write every later
// Append fails, so the file never holds a record after a torn one.
func (l *Log) Append(recs ...Record) error {
	if l == nil || len(recs) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	var buf []byte
	for _, rec := range recs {
		start := len(buf)
		buf = appendRecord(buf, rec)
		l.index(rec, span{l.size + int64(start), int64(len(buf) - start)})
	}
	_, err := l.f.Write(buf)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.err = fmt.Errorf("reclog: %s: %w", l.path, err)
		return l.err
	}
	l.size += int64(len(buf))
	if l.size > compactFactor*l.liveSize {
		return l.compact()
	}
	return nil
}

// compact copies the magic and the live records, in file order, into a
// synced temporary file renamed over the log, and appends to that file
// from then on.
func (l *Log) compact() (err error) {
	defer func() {
		if err != nil {
			l.err = fmt.Errorf("reclog: compact %s: %w", l.path, err)
			err = l.err
		}
	}()
	data, err := os.ReadFile(l.path) // a new log has no file, and no records
	if int64(len(data)) < l.size {
		return cmp.Or(err, errors.New("the file shrank under the log"))
	}
	buf, live := []byte(l.magic), make(map[string]span, len(l.live))
	for _, key := range l.byOffset() {
		s := l.live[key]
		live[key] = span{int64(len(buf)), s.n}
		buf = append(buf, data[s.off:s.off+s.n]...)
	}
	tmp := l.path + ".tmp"
	f, err := l.open(tmp, os.O_TRUNC|os.O_APPEND)
	if err != nil {
		return err
	}
	if _, err = f.Write(buf); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	var dir *os.File
	if err == nil {
		dir, err = os.Open(filepath.Dir(l.path))
	}
	if err == nil {
		err = dir.Sync() // makes the rename durable
		dir.Close()
	}
	if err != nil {
		f.Close()
		return err
	}
	if l.f != nil {
		l.f.Close()
	}
	l.f, l.live, l.size, l.liveSize = f, live, int64(len(buf)), int64(len(buf))
	return nil
}

// Close closes the log; later appends fail.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f, l.err = nil, errors.New("reclog: log closed")
	return err
}
