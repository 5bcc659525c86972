package kadop

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Peer-state persistence: a peer started with Config.DataDir keeps an
// append-only JSONL journal of the state that must survive a restart
// but lives outside the durable index — the raw XML of the documents it
// published (phase-two evaluation answers from them) and the directory
// entries it is home for (the Peer and Doc relations). On restart the
// journal replays in order, so a later record for the same document id
// or directory key wins, exactly as the in-memory maps behaved.
//
// The journal records only documents published as bytes (PublishXML,
// PublishXMLBatch: the CLI and network publishing path), because only
// there does the peer hold the raw bytes to replay. Documents handed
// over pre-parsed (Publish, PublishBatch, PublishAt) stay memory-only.

// stateRecord is one journal line.
type stateRecord struct {
	Kind  string `json:"kind"` // "doc" or "dir"
	ID    uint32 `json:"id,omitempty"`
	URI   string `json:"uri,omitempty"`
	Dtype string `json:"dtype,omitempty"`
	XML   []byte `json:"xml,omitempty"` // raw document bytes (base64 in JSON)
	Key   string `json:"key,omitempty"`
	Blob  []byte `json:"blob,omitempty"`
}

// statePersist appends records to the journal. Append errors are
// sticky: once the journal fails, further writes are refused so the
// journal never holds a gap in the middle of the history.
type statePersist struct {
	mu  sync.Mutex
	f   *os.File
	err error
}

// openStatePersist reads the existing journal (tolerating a torn last
// line from a crash mid-append) and opens it for appending.
func openStatePersist(path string) (*statePersist, []stateRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("kadop: peer state %s: %w", path, err)
	}
	var recs []stateRecord
	valid := int64(0)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var rec stateRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			break // torn tail: keep the valid prefix
		}
		recs = append(recs, rec)
		valid += int64(len(line)) + 1
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("kadop: peer state %s: %w", path, err)
	}
	// Drop the torn tail (if any) so the next append starts on a clean
	// line boundary.
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("kadop: peer state %s: %w", path, err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("kadop: peer state %s: %w", path, err)
	}
	return &statePersist{f: f}, recs, nil
}

// append journals records with a single write and a single fsync, so a
// publish call of N documents costs one durability round trip instead
// of N. Journal entries are rare next to index appends, so the fsync
// cost is noise while the recovery guarantee is not. The torn-tail
// recovery in openStatePersist applies to the batch: a crash mid-write
// keeps the valid line prefix, each line whole.
func (sp *statePersist) append(recs ...stateRecord) error {
	if sp == nil || len(recs) == 0 {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.err != nil {
		return sp.err
	}
	var buf []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	if _, err := sp.f.Write(buf); err != nil {
		sp.err = fmt.Errorf("kadop: peer state: %w", err)
		return sp.err
	}
	if err := sp.f.Sync(); err != nil {
		sp.err = fmt.Errorf("kadop: peer state: %w", err)
		return sp.err
	}
	return nil
}

func (sp *statePersist) close() error {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.f == nil {
		return nil
	}
	err := sp.f.Close()
	sp.f = nil
	return err
}
