package persist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/service"
)

// walRecord is one WAL entry on disk: a service journal record stamped with
// its sequence number, one JSON object per line. The sequence is strictly
// increasing within a file; replay and compaction key off it.
type walRecord struct {
	Seq uint64 `json:"seq"`
	service.Record
}

// SyncPolicy selects how the WAL trades durability for append latency.
type SyncPolicy int

const (
	// SyncBatch (the default) acknowledges appends once they are buffered
	// and fsyncs the batch at most every Options.SyncInterval — group
	// commit. A hard crash can lose at most the records of the current
	// interval; graceful shutdown and snapshots lose nothing. This keeps
	// fsync latency off the churn hot path (the bench gate prices it).
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs every append before acknowledging it: no
	// acknowledged record is ever lost, at ~one disk flush per mutation.
	SyncAlways
)

// WAL is the append-only churn log. It implements service.Journal, so
// attaching it to a registry (Owner.SetJournal) makes every mutation
// durable. Safe for concurrent Log calls.
type WAL struct {
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	seq    uint64 // last assigned sequence
	dirty  bool   // buffered-but-unsynced records exist
	closed bool
	// failed fail-stops the WAL after a SyncAlways fsync error: the record
	// may or may not be durable while the caller was told it failed, so
	// accepting further appends would let memory and log diverge op after
	// op. A restart (which replays the log as truth) clears the condition.
	failed bool

	policy   SyncPolicy
	interval time.Duration
	stop     chan struct{} // closes the background flusher
	done     chan struct{}
}

// openWAL opens (or creates) the log at path for appending, recovering from
// a torn tail: a final record only partially written by a crashed process
// is truncated away, records before it are preserved. minSeq floors the
// next assigned sequence (the snapshot's cut-point survives WAL
// compaction, which can leave the file empty). The surviving records are
// returned so the caller's first replay does not re-read the file.
func openWAL(path string, policy SyncPolicy, interval time.Duration, minSeq uint64) (*WAL, []walRecord, error) {
	recs, end, err := scanWAL(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("persist: truncate torn WAL tail of %s: %w", path, err)
	}
	if _, err := f.Seek(end, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	seq := minSeq
	if n := len(recs); n > 0 && recs[n-1].Seq > seq {
		seq = recs[n-1].Seq
	}
	if interval <= 0 {
		interval = DefaultSyncInterval
	}
	w := &WAL{
		f:        f,
		w:        bufio.NewWriter(f),
		seq:      seq,
		policy:   policy,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go w.flusher()
	return w, recs, nil
}

// scanWAL reads every complete record of a WAL file in order and returns
// them plus the byte offset where the valid prefix ends. A torn tail — a
// final line that is incomplete or fails to parse — ends the scan without
// error: it is the expected residue of a crash mid-append. A malformed
// record with more records after it is real corruption and errors.
func scanWAL(path string) ([]walRecord, int64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	var recs []walRecord
	var end int64
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// No terminating newline: a torn final record.
			break
		}
		line := data[off : off+nl]
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			if off+nl+1 < len(data) {
				return nil, 0, fmt.Errorf("persist: %s: corrupt record at offset %d (not the final record): %w", path, off, err)
			}
			break // torn final record that happens to contain a newline-free prefix
		}
		if n := len(recs); n > 0 && rec.Seq <= recs[n-1].Seq {
			return nil, 0, fmt.Errorf("persist: %s: sequence regressed %d → %d at offset %d", path, recs[n-1].Seq, rec.Seq, off)
		}
		recs = append(recs, rec)
		off += nl + 1
		end = int64(off)
	}
	return recs, end, nil
}

// Log implements service.Journal: assign the next sequence, append the
// record, and — under SyncAlways — flush and fsync before acknowledging.
// Under SyncBatch the background flusher syncs the batch within
// Options.SyncInterval.
func (w *WAL) Log(rec service.Record) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("persist: WAL is closed")
	}
	if w.failed {
		return 0, fmt.Errorf("persist: WAL fail-stopped after an fsync error; restart to recover")
	}
	w.seq++
	line, err := json.Marshal(walRecord{Seq: w.seq, Record: rec})
	if err != nil {
		w.seq--
		return 0, fmt.Errorf("persist: encode WAL record: %w", err)
	}
	line = append(line, '\n')
	if _, err := w.w.Write(line); err != nil {
		w.seq--
		return 0, fmt.Errorf("persist: append WAL record: %w", err)
	}
	w.dirty = true
	if w.policy == SyncAlways {
		if err := w.syncLocked(); err != nil {
			// The record is in the file or buffer but not known durable,
			// and the caller will treat the op as failed: fail-stop so the
			// divergence is bounded to this one record (replay resolves it
			// on restart).
			w.failed = true
			return 0, err
		}
	}
	return w.seq, nil
}

// LogBatch implements service.BatchJournal: assign K consecutive sequences
// and append all K records under one mutex acquisition, one buffered write,
// and — under SyncAlways — one fsync for the whole batch. This is the
// group-commit amortization the batched churn path is built on: a flush of K
// edits costs one disk round instead of K. Returns the sequence of the last
// record. Every record is marshaled before any byte is written, so an
// encoding error leaves the log untouched.
func (w *WAL) LogBatch(recs []service.Record) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("persist: WAL is closed")
	}
	if w.failed {
		return 0, fmt.Errorf("persist: WAL fail-stopped after an fsync error; restart to recover")
	}
	if len(recs) == 0 {
		return w.seq, nil
	}
	buf := make([]byte, 0, 96*len(recs))
	for i, rec := range recs {
		line, err := json.Marshal(walRecord{Seq: w.seq + uint64(i) + 1, Record: rec})
		if err != nil {
			return 0, fmt.Errorf("persist: encode WAL record %d of batch: %w", i, err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	if _, err := w.w.Write(buf); err != nil {
		// Some prefix of the batch may sit in the buffer; the sequences were
		// never assigned (w.seq is untouched), so the next append would
		// regress the on-disk order. Fail-stop like a SyncAlways error and
		// let restart-time replay (which tolerates a torn tail) resolve it.
		w.failed = true
		return 0, fmt.Errorf("persist: append WAL batch: %w", err)
	}
	w.seq += uint64(len(recs))
	w.dirty = true
	if w.policy == SyncAlways {
		if err := w.syncLocked(); err != nil {
			w.failed = true
			return 0, err
		}
	}
	return w.seq, nil
}

// Seq returns the last assigned sequence number.
func (w *WAL) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Sync flushes buffered records and fsyncs the file.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	return w.syncLocked()
}

// syncLocked flushes and fsyncs; the caller holds w.mu.
func (w *WAL) syncLocked() error {
	if !w.dirty {
		return nil
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("persist: flush WAL: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("persist: fsync WAL: %w", err)
	}
	w.dirty = false
	return nil
}

// flusher is the group-commit loop: under SyncBatch it syncs dirty batches
// every interval; under SyncAlways it has nothing to do but still exits
// cleanly on close.
func (w *WAL) flusher() {
	defer close(w.done)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			if w.policy == SyncBatch {
				_ = w.Sync() // an I/O error here resurfaces on the next Log/Sync/Close
			}
		}
	}
}

// compactThrough drops every record with sequence ≤ cutoff — records a
// just-written snapshot already reflects — by rewriting the file with the
// survivors and atomically swapping it in. Appends are blocked for the
// duration; sequences keep increasing monotonically across the swap.
func (w *WAL) compactThrough(path string, cutoff uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("persist: WAL is closed")
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	recs, _, err := scanWAL(path)
	if err != nil {
		return err
	}
	tmp := path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, rec := range recs {
		if rec.Seq <= cutoff {
			continue
		}
		line, err := json.Marshal(rec)
		if err != nil {
			f.Close()
			return fmt.Errorf("persist: compact: %w", err)
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			f.Close()
			return fmt.Errorf("persist: compact: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("persist: compact: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("persist: compact swap: %w", err)
	}
	old := w.f
	nf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The swapped file is valid on disk but we lost our handle;
		// refuse further appends rather than write to the unlinked file.
		w.closed = true
		old.Close()
		return fmt.Errorf("persist: reopen compacted WAL: %w", err)
	}
	w.f = nf
	w.w = bufio.NewWriter(nf)
	w.dirty = false
	old.Close()
	return nil
}

// Close syncs outstanding records, stops the flusher, and closes the file.
// Further Log calls fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	err := w.syncLocked()
	w.closed = true
	cerr := w.f.Close()
	w.mu.Unlock()
	close(w.stop)
	<-w.done
	if err != nil {
		return err
	}
	return cerr
}
