package dpp

import (
	"encoding/json"
	"fmt"
	"os"
)

// Durable DPP root state. The root blocks are the ϕ function of the
// paper — without them a restarted home peer has no idea which
// pseudo-keys its overflowed terms scattered to, even though the block
// postings themselves sit safely in the peers' durable stores. The
// state is tiny (a few references per overflowed term), so it is
// rewritten whole on every mutation: marshal, write to a temp file,
// fsync, rename. The rename is atomic, so a crash leaves either the old
// or the new state, never a torn one.

// persistedState is the JSON layout of the state file: the roots of
// overflowed terms, and the generation and types of inline ones.
type persistedState struct {
	Roots       map[string]*Root    `json:"roots"`
	InlineTypes map[string][]string `json:"inline_types,omitempty"`
	InlineGen   map[string]uint64   `json:"inline_gen,omitempty"`
	Next        int                 `json:"next"`
}

// load reads the state file into the manager (no-op without a path or
// file). Called once from NewManager, before the mutexes matter.
func (m *Manager) load() error {
	if m.persistPath == "" {
		return nil
	}
	data, err := os.ReadFile(m.persistPath)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("dpp: load state %s: %w", m.persistPath, err)
	}
	var st persistedState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("dpp: load state %s: %w", m.persistPath, err)
	}
	if st.Roots != nil {
		m.roots = st.Roots
	}
	// An overflowed term may still have inline entries (older files kept
	// them): its generation stays above the inline list's, never reused.
	for term, gen := range st.InlineGen {
		if r := m.roots[term]; r != nil {
			r.Gen = max(r.Gen, gen)
		} else {
			m.roots[term] = &Root{Term: term, Gen: gen, Types: st.InlineTypes[term]}
		}
	}
	m.next = st.Next
	return nil
}

// save rewrites the state file atomically. Callers hold m.wmu and m.mu.
// Without a path it is free, so mutate calls it unconditionally.
func (m *Manager) save() error {
	if m.persistPath == "" {
		return nil
	}
	st := persistedState{Roots: map[string]*Root{}, InlineTypes: map[string][]string{},
		InlineGen: map[string]uint64{}, Next: m.next}
	for term, r := range m.roots {
		if len(r.Blocks) > 0 {
			st.Roots[term] = r
			continue
		}
		st.InlineGen[term], st.InlineTypes[term] = r.Gen, r.Types
	}
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	tmp := m.persistPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("dpp: save state: %w", err)
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, m.persistPath)
	}
	if err != nil {
		return fmt.Errorf("dpp: save state: %w", err)
	}
	return nil
}
