package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"segdb"
	"segdb/internal/pager"
	"segdb/internal/wal"
)

// Config configures a Follower.
type Config struct {
	// Leader is the leader's base URL (e.g. http://10.0.0.1:8080).
	Leader string
	// DB and WAL are the follower's local checkpoint and log paths; the
	// follower is crash-durable through them exactly like a leader.
	DB, WAL string
	// ID names this follower in the leader's lag table; defaults to the
	// local hostname.
	ID string
	// Durable configures the local index (cache size, build defaults);
	// Replica is forced on.
	Durable segdb.DurableOptions
	// PollWait is the long-poll duration sent with WAL requests when
	// caught up; 0 selects 10s.
	PollWait time.Duration
	// BatchBytes caps one shipped WAL response; 0 selects the leader's
	// default.
	BatchBytes int
	// CompactRecords is how many local log records trigger a local
	// checkpoint (bounding restart replay); 0 selects 65536, negative
	// disables.
	CompactRecords int64
	// GraceClose is how long a superseded local index keeps serving
	// in-flight queries after a re-snapshot swap before its store is
	// closed; 0 selects 15s.
	GraceClose time.Duration
	// OnSwap is called with the new live index whenever a bootstrap or
	// re-snapshot replaces it — the serving layer's hook to repoint.
	OnSwap func(ix *segdb.SyncIndex, st *segdb.Store)
	// Client issues the leader requests; nil selects a default client.
	// The client must not impose a global timeout shorter than PollWait.
	Client *http.Client
	// Logf logs follower lifecycle events; nil discards them.
	Logf func(format string, args ...any)
	// WALFile substitutes the local log's backing file — the crash-matrix
	// test hook. reset true asks for a fresh (truncated) log, as a
	// bootstrap would create; false reopens the existing one.
	WALFile func(reset bool) (wal.File, error)
}

// errLocalApply classifies follower errors where the local index and log
// may have diverged mid-batch (a failed apply or append): recovery is
// reopening from local durable state, not retrying the fetch.
var errLocalApply = errors.New("repl: local apply failed")

// errNoPosition reports local state without a position mark: it cannot
// be continued against any leader log.
var errNoPosition = errors.New("repl: local log holds no position mark")

// Follower maintains a local, crash-durable copy of a leader's index by
// tailing its shipped WAL. Queries run against Index(); all state
// transitions (apply batches, re-snapshots) happen on the goroutine
// running Run, so readers only ever see a prefix-consistent index.
type Follower struct {
	cfg    Config
	client *http.Client

	mu            sync.Mutex
	d             *segdb.DurableIndex
	epoch         uint64 // leader position of the local state
	lsn           int64
	leaderDurable int64
	caughtUp      bool
	lastCaughtUp  time.Time
	started       time.Time
	lastErr       string
	applied       int64 // leader records applied (this process)
	batches       int64
	resnapshots   int64
	retired       []retiredIndex
}

// retiredIndex is a superseded local index still inside its grace
// window: in-flight queries may hold it, so its store closes later.
type retiredIndex struct {
	d  *segdb.DurableIndex
	at time.Time
}

// Open resumes or bootstraps a follower. Local state that carries a
// position mark resumes without touching the leader — a follower can
// restart and serve (stale) reads while the leader is down; state with
// no usable position is discarded and bootstrapped from the leader's
// snapshot.
func Open(ctx context.Context, cfg Config) (*Follower, error) {
	if cfg.Leader == "" {
		return nil, fmt.Errorf("repl: follower needs a leader URL")
	}
	cfg.Leader = strings.TrimSuffix(cfg.Leader, "/")
	if cfg.ID == "" {
		if host, err := os.Hostname(); err == nil {
			cfg.ID = host
		} else {
			cfg.ID = "follower"
		}
	}
	if cfg.PollWait == 0 {
		cfg.PollWait = 10 * time.Second
	}
	if cfg.CompactRecords == 0 {
		cfg.CompactRecords = 65536
	}
	if cfg.GraceClose == 0 {
		cfg.GraceClose = 15 * time.Second
	}
	f := &Follower{cfg: cfg, client: cfg.Client, started: time.Now()}
	if f.client == nil {
		f.client = &http.Client{}
	}

	d, err := f.openLocal(false)
	if err == nil {
		if epoch, lsn, ok := d.ReplPosition(); ok {
			f.install(d, epoch, lsn)
			f.logf("repl: resumed at epoch %d lsn %d from local state", epoch, lsn)
			return f, nil
		}
		d.Close()
		err = errNoPosition
	}
	f.logf("repl: local state unusable (%v); bootstrapping from %s", err, cfg.Leader)
	if err := f.bootstrap(ctx); err != nil {
		return nil, err
	}
	return f, nil
}

// openLocal opens the local replica index; reset asks the WALFile test
// hook for a fresh log (real files are simply recreated by bootstrap).
func (f *Follower) openLocal(reset bool) (*segdb.DurableIndex, error) {
	dopt := f.cfg.Durable
	dopt.Replica = true
	if f.cfg.WALFile != nil {
		wf, err := f.cfg.WALFile(reset)
		if err != nil {
			return nil, err
		}
		dopt.WALFile = wf
	}
	return segdb.OpenDurableIndex(f.cfg.DB, f.cfg.WAL, dopt)
}

// bootstrap downloads the leader's snapshot and installs it as the local
// state. The step order makes every crash window safe: the local log is
// removed before the checkpoint rename, and the position mark is the
// last durable step — so a crash anywhere in between leaves state with
// no mark, which the next Open discards and bootstraps again. Only the
// mark's fsync commits the bootstrap.
func (f *Follower) bootstrap(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cfg.Leader+SnapshotPath, nil)
	if err != nil {
		return fmt.Errorf("repl: snapshot request: %w", err)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("repl: snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: snapshot: leader returned %s", resp.Status)
	}
	epoch, eerr := strconv.ParseUint(resp.Header.Get(HdrEpoch), 10, 64)
	lsn, lerr := strconv.ParseInt(resp.Header.Get(HdrLSN), 10, 64)
	if eerr != nil || lerr != nil {
		return fmt.Errorf("repl: snapshot: malformed position headers (%q, %q)",
			resp.Header.Get(HdrEpoch), resp.Header.Get(HdrLSN))
	}

	tmp := f.cfg.DB + ".snap"
	if err := downloadTo(tmp, resp.Body, resp.ContentLength); err != nil {
		return fmt.Errorf("repl: snapshot: %w", err)
	}
	// Old log first: once the new checkpoint is in place, leftover local
	// records (and their position marks) would pair it with the wrong
	// positions. Removing the log first means a crash here leaves markless
	// state → re-bootstrap, never a wrong pairing.
	if f.cfg.WALFile == nil {
		if err := os.Remove(f.cfg.WAL); err != nil && !os.IsNotExist(err) {
			os.Remove(tmp)
			return fmt.Errorf("repl: snapshot: clear local wal: %w", err)
		}
	}
	if err := pager.CommitFile(tmp, f.cfg.DB); err != nil {
		return fmt.Errorf("repl: snapshot: install: %w", err)
	}

	d, err := f.openLocal(true)
	if err != nil {
		return fmt.Errorf("repl: open bootstrapped state: %w", err)
	}
	// Commit point: the mark pairs the installed checkpoint with its
	// leader position.
	if err := d.AppendMark(epoch, lsn); err != nil {
		d.Close()
		return fmt.Errorf("repl: position mark: %w", err)
	}
	f.install(d, epoch, lsn)
	f.logf("repl: bootstrapped from %s at epoch %d lsn %d", f.cfg.Leader, epoch, lsn)
	return nil
}

// downloadTo streams body into path (replacing it) and fsyncs; a length
// mismatch against want (when known) is an error — a torn download must
// not look installable.
func downloadTo(path string, body io.Reader, want int64) error {
	return pager.WriteFileSync(path, func(w io.Writer) error {
		n, err := io.Copy(w, body)
		if err == nil && want >= 0 && n != want {
			err = fmt.Errorf("download: got %d bytes, want %d", n, want)
		}
		return err
	})
}

// install publishes d as the live index at the given leader position and
// retires the previous one into the grace window.
func (f *Follower) install(d *segdb.DurableIndex, epoch uint64, lsn int64) {
	f.mu.Lock()
	old := f.d
	f.d = d
	f.epoch, f.lsn = epoch, lsn
	f.caughtUp = false
	if old != nil {
		f.retired = append(f.retired, retiredIndex{d: old, at: time.Now()})
	}
	f.mu.Unlock()
	if f.cfg.OnSwap != nil {
		f.cfg.OnSwap(d.Index(), d.Store())
	}
}

// reapRetired closes superseded indexes whose grace window has passed;
// force closes all of them (shutdown).
func (f *Follower) reapRetired(force bool) {
	f.mu.Lock()
	var done, keep []retiredIndex
	for _, r := range f.retired {
		if force || time.Since(r.at) >= f.cfg.GraceClose {
			done = append(done, r)
		} else {
			keep = append(keep, r)
		}
	}
	f.retired = keep
	f.mu.Unlock()
	for _, r := range done {
		r.d.Close()
	}
}

// Run tails the leader until ctx ends: fetch, apply, re-snapshot on
// rotation, back off on errors. A follower survives leader restarts (its
// position is always a durable prefix — see the package comment) and
// heals local apply failures by reopening from its own durable state.
func (f *Follower) Run(ctx context.Context) error {
	backoff := 100 * time.Millisecond
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := f.Step(ctx)
		f.reapRetired(false)
		if err == nil {
			backoff = 100 * time.Millisecond
			continue
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		f.setErr(err)
		switch {
		case errors.Is(err, wal.ErrLogRotated):
			f.logf("repl: leader rotated its log; re-snapshotting")
			if berr := f.bootstrap(ctx); berr != nil {
				f.setErr(berr)
				break // fall through to backoff
			}
			f.mu.Lock()
			f.resnapshots++
			f.mu.Unlock()
			backoff = 100 * time.Millisecond
			continue
		case errors.Is(err, errLocalApply):
			f.logf("repl: local apply failed (%v); reopening local state", err)
			if rerr := f.recoverLocal(ctx); rerr != nil {
				f.setErr(rerr)
				break
			}
			continue
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return ctx.Err()
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// recoverLocal reopens the follower from its own durable state after a
// local apply failure — the live index may have diverged from the local
// log mid-batch, and the log is the truth. No usable position after the
// reopen means bootstrapping afresh.
func (f *Follower) recoverLocal(ctx context.Context) error {
	f.mu.Lock()
	old := f.d
	f.mu.Unlock()
	if old != nil {
		old.Close()
	}
	d, err := f.openLocal(false)
	if err == nil {
		if epoch, lsn, ok := d.ReplPosition(); ok {
			// install would re-retire (and later close) old; it is already
			// closed, so drop it from the live slot first.
			f.mu.Lock()
			f.d = nil
			f.mu.Unlock()
			f.install(d, epoch, lsn)
			return nil
		}
		d.Close()
		err = errNoPosition
	}
	f.logf("repl: local reopen unusable (%v); bootstrapping", err)
	f.mu.Lock()
	f.d = nil
	f.mu.Unlock()
	return f.bootstrap(ctx)
}

// Step performs one fetch+apply round against the leader: at most one
// WAL request and one applied batch. Run loops it; tests drive it
// directly for deterministic crash matrices.
func (f *Follower) Step(ctx context.Context) error {
	f.mu.Lock()
	d, epoch, lsn := f.d, f.epoch, f.lsn
	f.mu.Unlock()
	if d == nil {
		return errors.New("repl: no live index")
	}

	u := fmt.Sprintf("%s%s?epoch=%d&from=%d&id=%s&wait_ms=%d",
		f.cfg.Leader, WALPath, epoch, lsn, url.QueryEscape(f.cfg.ID), f.cfg.PollWait.Milliseconds())
	if f.cfg.BatchBytes > 0 {
		u += fmt.Sprintf("&max=%d", f.cfg.BatchBytes)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return fmt.Errorf("repl: wal request: %w", err)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("repl: wal fetch: %w", err)
	}
	defer resp.Body.Close()

	durable, _ := strconv.ParseInt(resp.Header.Get(HdrDurable), 10, 64)
	switch resp.StatusCode {
	case http.StatusNoContent:
		f.observe(lsn, durable, 0, 0)
		return nil
	case http.StatusOK:
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("repl: wal body: %w", err)
		}
		recs, err := wal.DecodeFrames(body)
		if err != nil {
			return fmt.Errorf("repl: wal frames: %w", err)
		}
		if err := d.ApplyReplicated(recs); err != nil {
			return fmt.Errorf("%w: %v", errLocalApply, err)
		}
		lsn += int64(len(body))
		f.observe(lsn, durable, len(recs), 1)
		return f.maybeCompact(d, epoch, lsn)
	case http.StatusGone:
		return fmt.Errorf("repl: position (%d, %d) rotated away: %w", epoch, lsn, wal.ErrLogRotated)
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("repl: leader returned %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
}

// observe folds one fetch's outcome into the follower's lag accounting.
func (f *Follower) observe(lsn, durable int64, recs, batch int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lsn = lsn
	if durable > 0 {
		f.leaderDurable = durable
	}
	f.applied += int64(recs)
	f.batches += int64(batch)
	f.caughtUp = durable > 0 && lsn >= durable
	if f.caughtUp {
		f.lastCaughtUp = time.Now()
		f.lastErr = ""
	}
}

// maybeCompact checkpoints the local state once the local log exceeds
// the configured record budget, bounding restart replay time. The
// position mark is re-appended immediately after the rotation; a crash
// between the two leaves markless state and the next start bootstraps —
// never a wrong position.
func (f *Follower) maybeCompact(d *segdb.DurableIndex, epoch uint64, lsn int64) error {
	if f.cfg.CompactRecords < 0 {
		return nil
	}
	if records, _, _ := d.WALStats(); records < f.cfg.CompactRecords {
		return nil
	}
	f.logf("repl: compacting local state at epoch %d lsn %d", epoch, lsn)
	if err := d.Compact(); err != nil {
		return fmt.Errorf("%w: local compact: %v", errLocalApply, err)
	}
	if err := d.AppendMark(epoch, lsn); err != nil {
		return fmt.Errorf("%w: re-mark after compact: %v", errLocalApply, err)
	}
	return nil
}

// Status is the follower's replication position and lag, served on
// /statsz and /metricsz.
type Status struct {
	Leader string `json:"leader"`
	ID     string `json:"id"`
	Epoch  uint64 `json:"epoch"`
	// AppliedLSN is the leader log position the local state equals.
	AppliedLSN       int64 `json:"applied_lsn"`
	LeaderDurableLSN int64 `json:"leader_durable_lsn"`
	// LagBytes is committed leader log not yet applied locally.
	LagBytes int64 `json:"lag_bytes"`
	// LagSeconds is time since the follower last observed itself caught
	// up (0 when caught up); after a restart it counts from process
	// start until the first catch-up.
	LagSeconds      float64 `json:"lag_seconds"`
	CaughtUp        bool    `json:"caught_up"`
	RecordsApplied  int64   `json:"records_applied"`
	BatchesApplied  int64   `json:"batches_applied"`
	Resnapshots     int64   `json:"resnapshots"`
	LocalWALRecords int64   `json:"local_wal_records"`
	LastError       string  `json:"last_error,omitempty"`
}

// Status reports the follower's current position and lag.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := Status{
		Leader:           f.cfg.Leader,
		ID:               f.cfg.ID,
		Epoch:            f.epoch,
		AppliedLSN:       f.lsn,
		LeaderDurableLSN: f.leaderDurable,
		CaughtUp:         f.caughtUp,
		RecordsApplied:   f.applied,
		BatchesApplied:   f.batches,
		Resnapshots:      f.resnapshots,
		LastError:        f.lastErr,
	}
	if lag := f.leaderDurable - f.lsn; lag > 0 {
		s.LagBytes = lag
	}
	if !f.caughtUp {
		ref := f.lastCaughtUp
		if ref.IsZero() {
			ref = f.started
		}
		s.LagSeconds = time.Since(ref).Seconds()
	}
	if f.d != nil {
		records, _, _ := f.d.WALStats()
		s.LocalWALRecords = records
	}
	return s
}

// Healthy reports nil while the follower is within maxLag of the leader:
// caught up, or stale for no longer than maxLag. maxLag <= 0 only
// requires a live index.
func (f *Follower) Healthy(maxLag time.Duration) error {
	s := f.Status()
	if maxLag <= 0 || s.CaughtUp {
		return nil
	}
	if lag := time.Duration(s.LagSeconds * float64(time.Second)); lag > maxLag {
		return fmt.Errorf("replica lag %.1fs exceeds %s (behind by %d bytes; last error: %s)",
			s.LagSeconds, maxLag, s.LagBytes, s.LastError)
	}
	return nil
}

// Index returns the current live index for reads (nil only mid-recovery
// after a local failure); after a re-snapshot swap, prefer the OnSwap
// hook — this accessor is for startup wiring.
func (f *Follower) Index() *segdb.SyncIndex {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.d == nil {
		return nil
	}
	return f.d.Index()
}

// Store returns the current live index's store, for I/O stats.
func (f *Follower) Store() *segdb.Store {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.d == nil {
		return nil
	}
	return f.d.Store()
}

func (f *Follower) setErr(err error) {
	f.logf("repl: %v", err)
	f.mu.Lock()
	f.lastErr = err.Error()
	f.mu.Unlock()
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// Close compacts the local state (so a restart resumes from a mark and
// an empty log instead of a long replay) and releases every index. Call
// after Run has stopped.
func (f *Follower) Close() error {
	f.reapRetired(true)
	f.mu.Lock()
	d, epoch, lsn := f.d, f.epoch, f.lsn
	f.d = nil
	f.mu.Unlock()
	if d == nil {
		return nil
	}
	if err := d.Compact(); err == nil {
		d.AppendMark(epoch, lsn)
	}
	return d.Close()
}
