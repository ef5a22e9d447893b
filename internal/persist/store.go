// Package persist is the durability subsystem of the serving layer: a
// schema-versioned JSON snapshot of every community (graph, prefix code,
// exact coloring, cache version — enough to answer byte-identically after a
// restart) plus an append-only churn WAL of create/delete/add-family/
// marry/divorce records with fsync batching. Recovery loads the snapshot
// and replays only the WAL records newer than each community's snapshotted
// sequence, so a crash at any point — including between writing a snapshot
// and compacting the WAL, or mid-append (torn final record) — restores a
// consistent registry.
//
// Layout under the data directory:
//
//	snapshot.json — the latest registry snapshot (atomic tmp+rename)
//	wal.jsonl     — churn records since, one JSON object per line
//
// The write-ahead contract is service.Journal's: the registry logs every
// mutation before applying it, so an acknowledged op is in the WAL buffer
// before the client hears about it. With the default SyncBatch policy the
// buffer is fsynced at most SyncInterval later (group commit); SyncAlways
// fsyncs per record.
package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/service"
)

// SnapshotSchemaVersion identifies the snapshot.json layout; Load refuses
// snapshots written by an incompatible layout instead of misreading them.
// Version 2 added the poly-kind community fields (kind, default_demand,
// poly) — purely additive, so schema-1 snapshots (all-classic by
// construction) still read correctly.
const SnapshotSchemaVersion = 2

// minSnapshotSchema is the oldest snapshot layout this build still reads.
const minSnapshotSchema = 1

// DefaultSyncInterval is the group-commit window of the SyncBatch policy.
const DefaultSyncInterval = 5 * time.Millisecond

// snapshotFile and walFile name the two artifacts in the data directory.
const (
	snapshotFile = "snapshot.json"
	walFile      = "wal.jsonl"
)

// Snapshot is the on-disk registry snapshot. Seq is the WAL cut-point the
// snapshot was taken at: every record at or below it (per community, via
// CommunityState.Seq) is reflected in Communities, so replay starts after
// it and compaction may drop everything up to it.
type Snapshot struct {
	Schema      int                      `json:"schema"`
	SavedAt     string                   `json:"saved_at"` // RFC3339
	Seq         uint64                   `json:"seq"`
	Communities []service.CommunityState `json:"communities"`
}

// Options tune a Store.
type Options struct {
	// Sync selects the WAL fsync policy; the zero value is SyncBatch.
	Sync SyncPolicy
	// SyncInterval is the SyncBatch group-commit window; ≤ 0 uses
	// DefaultSyncInterval.
	SyncInterval time.Duration
}

// Store is an open data directory: the WAL accepting appends plus the
// snapshot read at open time. One process owns a Store at a time.
type Store struct {
	dir  string
	opts Options
	wal  *WAL
	// mu serializes SaveSnapshot and Close: a periodic snapshot and the
	// shutdown snapshot may race in the daemon, and two writers sharing
	// snapshot.json.tmp would corrupt the file they rename in.
	mu   sync.Mutex
	snap *Snapshot // nil when the directory had none
	// pending holds the records scanned at Open so the first Load does not
	// re-read and re-parse the whole WAL; cleared after use. seqAtOpen
	// detects appends between Open and Load that would stale it.
	pending   []walRecord
	seqAtOpen uint64
}

// Open creates dir if needed, reads any existing snapshot, and opens the
// WAL for appending (recovering a torn tail). It does not touch a registry;
// call Load to build one.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("persist: empty data directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: create data dir: %w", err)
	}
	snap, err := readSnapshot(filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil, err
	}
	var minSeq uint64
	if snap != nil {
		minSeq = snap.Seq
		for _, st := range snap.Communities {
			if st.Seq > minSeq {
				minSeq = st.Seq
			}
		}
	}
	wal, recs, err := openWAL(filepath.Join(dir, walFile), opts.Sync, opts.SyncInterval, minSeq)
	if err != nil {
		return nil, err
	}
	return &Store{dir: dir, opts: opts, wal: wal, snap: snap, pending: recs, seqAtOpen: wal.Seq()}, nil
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Journal returns the WAL as the registry hook: pass it to
// Owner.SetJournal (Load already does).
func (s *Store) Journal() service.Journal { return s.wal }

// Load reconstructs a registry from the snapshot plus the WAL records newer
// than it, then attaches the WAL as the registry's journal so subsequent
// mutations are durable. Restored communities answer window and next-happy
// queries byte-identically to the process that persisted them: the exact
// coloring is restored, never re-derived.
func (s *Store) Load() (*service.Owner, error) {
	reg := service.New(service.Opts{})
	if s.snap != nil {
		for _, st := range s.snap.Communities {
			if _, err := reg.Restore(st); err != nil {
				return nil, err
			}
		}
	}
	// The records scanned at Open cover the whole file unless something was
	// appended since (possible only if the caller attached Journal() by
	// hand before Load); re-scan in that case rather than replay a stale
	// prefix.
	recs := s.pending
	s.pending = nil
	if s.wal.Seq() != s.seqAtOpen {
		if err := s.wal.Sync(); err != nil {
			return nil, err
		}
		var err error
		if recs, _, err = scanWAL(filepath.Join(s.dir, walFile)); err != nil {
			return nil, err
		}
	}
	for _, rec := range recs {
		if err := reg.Apply(rec.Seq, rec.Record); err != nil {
			return nil, err
		}
	}
	reg.SetJournal(s.wal)
	return reg, nil
}

// SaveSnapshot writes the registry's current state as the new snapshot and
// compacts the WAL down to the records the snapshot does not cover. The
// write is atomic (tmp+rename) and ordering makes every crash window safe:
// the cut-point sequence is read before any community is exported, so a
// record ≤ cutoff is either in its community's exported state or belongs
// to a community created-and-deleted before the export walk; records >
// cutoff survive compaction and replay idempotently over the snapshot.
func (s *Store) SaveSnapshot(reg *service.Owner) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.wal.Sync(); err != nil {
		return err
	}
	cutoff := s.wal.Seq()
	ids := reg.List()
	states := make([]service.CommunityState, 0, len(ids))
	for _, id := range ids {
		c, ok := reg.Get(id)
		if !ok {
			continue // deleted while we walked; its delete record is > cutoff or reflected
		}
		states = append(states, c.Export())
	}
	snap := &Snapshot{
		Schema:      SnapshotSchemaVersion,
		SavedAt:     time.Now().UTC().Format(time.RFC3339),
		Seq:         cutoff,
		Communities: states,
	}
	if err := writeSnapshot(filepath.Join(s.dir, snapshotFile), snap); err != nil {
		return err
	}
	s.snap = snap
	// A crash before this compaction leaves stale records ≤ cutoff in the
	// WAL; replay skips them by sequence, so the snapshot is already the
	// recovery point the moment the rename lands.
	return s.wal.compactThrough(filepath.Join(s.dir, walFile), cutoff)
}

// Close syncs and closes the WAL, waiting out any in-flight SaveSnapshot.
// It does not snapshot; callers that want snapshot-on-shutdown call
// SaveSnapshot first (see cmd/holidayd).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.Close()
}

// readSnapshot loads and validates a snapshot file; a missing file is not
// an error (fresh data directory).
func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("persist: %s: %w", path, err)
	}
	if snap.Schema < minSnapshotSchema || snap.Schema > SnapshotSchemaVersion {
		return nil, fmt.Errorf("persist: %s has schema %d, this build reads %d through %d",
			path, snap.Schema, minSnapshotSchema, SnapshotSchemaVersion)
	}
	return &snap, nil
}

// writeSnapshot renders the snapshot and swaps it in atomically so a crash
// mid-write can never leave a torn snapshot.json.
func writeSnapshot(path string, snap *Snapshot) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("persist: encode snapshot: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("persist: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: fsync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("persist: swap snapshot: %w", err)
	}
	return nil
}
