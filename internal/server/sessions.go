package server

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcdc/internal/core"
	"mcdc/internal/model"
	"mcdc/internal/stream"
)

// checkpointExt is the file suffix of one session's checkpoint inside the
// pool's state directory: <state-dir>/sessions/<id>.ckpt. Session ids pass
// validateName (letters, digits, '-', '_', '.'), so the id is safe as a file
// name and the mapping is invertible.
const checkpointExt = ".ckpt"

// session wraps one streaming clusterer. stream.Clusterer is single-goroutine
// by contract, so every operation holds the session's own mutex: arrivals
// within a session are serialized (preserving the per-session determinism
// contract — one rng, one presentation order), while different sessions
// proceed in parallel.
//
// Lock order: a goroutine holding a session mutex must not acquire a shard
// mutex (shard → session only). The TTL sweeper, which needs both, takes the
// session mutex via TryLock outside any shard lock and re-acquires the shard
// lock only after releasing nothing it still holds.
type session struct {
	mu      sync.Mutex
	c       *stream.Clusterer
	lowSim  int64     // drift counter, guarded by mu
	lastUse time.Time // guarded by mu; drives TTL eviction
	// gone marks a session that was evicted or deleted after a caller already
	// held its pointer: the late operation must fail and retry through the
	// pool (which pages a checkpointed session back in) instead of mutating
	// an orphan whose state would silently vanish.
	gone bool // guarded by mu
	// dirty marks state not yet checkpointed. In replicated mode (where every
	// assignment checkpoints before responding) a clean session is skipped by
	// the periodic/shutdown flush — re-snapshotting it would rotate its random
	// stream off the replicated reference trajectory.
	dirty bool // guarded by mu

	// Replication state (guarded by mu, persisted in the checkpoint):
	// ownerEpoch is the fencing token bumped on every promotion/adoption;
	// lastReqID/lastRow/lastA cache the last applied assignment so a gateway
	// retry carrying the same request id replays the response instead of
	// applying the row twice.
	ownerEpoch int64
	lastReqID  string
	lastRow    []int
	lastA      stream.Assignment
}

// sessionPool is a lock-sharded map of streaming sessions. Concurrent
// /assign calls for different sessions hash to (usually) different shards,
// so pool bookkeeping never becomes the serialization point — only the
// per-session mutex serializes, and only within one stream.
//
// With a state directory the pool is also durable: sessions checkpoint to
// one file each (all checkpoint writes happen under the session mutex, so a
// file always holds the newest snapshot), idle-evicted sessions spill to
// disk instead of being lost, and a lookup miss pages a checkpointed session
// back in transparently.
type sessionPool struct {
	shards []*sessionShard
	dir    string // "" → memory-only (eviction discards, restarts forget)
	log    *slog.Logger
	ckpt   *histogram // checkpoint-write durations (nil = not recorded)

	// replicate enables checkpoint-before-respond: every assignment
	// checkpoints (and ships to the ring successor, when a replicator is
	// configured) before its response is written. replicas holds checkpoints
	// shipped here by peers; repl is swapped on fleet membership changes.
	replicate bool
	replicas  *replicaStore
	repl      atomic.Pointer[replicator]

	evicted      atomic.Int64 // sessions evicted by the TTL sweeper
	restored     atomic.Int64 // sessions paged in from checkpoints
	checkpoints  atomic.Int64 // checkpoint files written, by any path
	lowSimRetire atomic.Int64 // drift counts of evicted/deleted sessions

	shipped      atomic.Int64 // checkpoints shipped to a replica holder
	shipFailures atomic.Int64 // ships that failed (coverage gap until repaired)
	replicaRecv  atomic.Int64 // checkpoints accepted into the replica store
	replicaStale atomic.Int64 // ships rejected by ownership-epoch fencing
	promoted     atomic.Int64 // replicas promoted to owned sessions
	adopted      atomic.Int64 // sessions adopted via checkpoint migration
	replayed     atomic.Int64 // assignments answered from the replay cache
}

type sessionShard struct {
	mu sync.RWMutex
	m  map[string]*session
}

func newSessionPool(shards int, dir string, log *slog.Logger, ckpt *histogram) *sessionPool {
	if shards <= 0 {
		shards = 16
	}
	if log == nil {
		log = discardLogger
	}
	p := &sessionPool{shards: make([]*sessionShard, shards), dir: dir, log: log, ckpt: ckpt}
	for i := range p.shards {
		p.shards[i] = &sessionShard{m: make(map[string]*session)}
	}
	return p
}

func (p *sessionPool) shard(id string) *sessionShard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return p.shards[h.Sum32()%uint32(len(p.shards))]
}

func (p *sessionPool) path(id string) string {
	return filepath.Join(p.dir, id+checkpointExt)
}

// get returns the live session for id, paging it in from its checkpoint
// when the pool is durable and the session was evicted to disk.
func (p *sessionPool) get(id string) (*session, bool) {
	sh := p.shard(id)
	sh.mu.RLock()
	s, ok := sh.m[id]
	sh.mu.RUnlock()
	if ok || p.dir == "" {
		return s, ok
	}
	// Resident ids all passed validateName at create/restore time, so only
	// the disk path below needs the guard — it keeps a crafted id
	// ("../../x") from escaping the state dir, and it must run before any
	// path is formed.
	if validateName(id) != nil {
		return nil, false
	}
	// Cheap negative lookup outside the write lock: the common miss — a
	// request naming a session that simply does not exist — must not pay
	// file I/O while blocking the whole shard.
	if _, err := os.Stat(p.path(id)); err != nil {
		return nil, false
	}
	// A checkpoint exists: page it in. The shard write lock makes the
	// check-load-insert atomic, so two concurrent misses for the same id
	// cannot restore two divergent copies.
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s, ok := sh.m[id]; ok {
		return s, true
	}
	st, err := model.LoadStreamFile(p.path(id))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			p.log.Warn("unreadable session checkpoint", "session", id, "path", p.path(id), "err", err)
		}
		return nil, false
	}
	c, err := stream.Restore(st)
	if err != nil {
		p.log.Warn("corrupt session checkpoint", "session", id, "path", p.path(id), "err", err)
		return nil, false
	}
	s = sessionFromState(c, st)
	sh.m[id] = s
	p.restored.Add(1)
	return s, true
}

// sessionFromState builds the in-memory session for a restored checkpoint,
// carrying the ownership epoch and replay cache back in so fencing and
// retry idempotency survive restarts.
func sessionFromState(c *stream.Clusterer, st *model.StreamState) *session {
	return &session{
		c: c, lastUse: time.Now(),
		ownerEpoch: st.OwnerEpoch,
		lastReqID:  st.LastReqID,
		lastRow:    st.LastRow,
		lastA: stream.Assignment{
			Cluster:    st.LastCluster,
			Similarity: st.LastSimilarity,
			ModelEpoch: st.LastModelEpoch,
		},
	}
}

// create registers a new streaming session. It fails if the id is taken —
// including by a checkpointed-but-evicted session, which a create would
// otherwise silently shadow until the next eviction overwrote its file.
func (p *sessionPool) create(id string, cardinalities []int, window int, seed int64, workers int) error {
	c, err := stream.NewClusterer(stream.Config{
		Cardinalities: cardinalities,
		WindowSize:    window,
		MGCPL: core.MGCPLConfig{
			Workers: workers,
			Rand:    rand.New(rand.NewSource(seed)),
		},
	})
	if err != nil {
		return err
	}
	sh := p.shard(id)
	sh.mu.Lock()
	if _, ok := sh.m[id]; ok {
		sh.mu.Unlock()
		return fmt.Errorf("server: session %q already exists", id)
	}
	if p.dir != "" {
		if _, err := os.Stat(p.path(id)); err == nil {
			sh.mu.Unlock()
			return fmt.Errorf("server: session %q already exists (checkpointed on disk)", id)
		}
	}
	s := &session{c: c, lastUse: time.Now()}
	sh.m[id] = s
	sh.mu.Unlock()
	if p.replicate && p.dir != "" {
		// Checkpoint (and ship) the newborn session immediately, so a replica
		// exists before the first assignment and a create survives an owner
		// loss with zero arrivals.
		s.mu.Lock()
		err := p.saveLocked(id, s)
		if err != nil {
			s.gone = true // undo the create: an unpersistable session must not serve
		}
		s.mu.Unlock()
		if err != nil {
			p.dropIfSame(id, s)
			return fmt.Errorf("server: checkpoint new session: %w", err)
		}
	}
	return nil
}

// remove deletes a session and, in a durable pool, its checkpoint file.
// Ordering is load-bearing twice over: the gone flag is raised (under the
// session mutex) before the file is unlinked, so no checkpoint writer —
// they all check gone behind that mutex — can rewrite the file afterwards;
// and the unlink happens under the shard lock, so a concurrent get() cannot
// page the session back in from a checkpoint that is about to vanish
// (page-in holds the same shard lock). Taking the session mutex inside the
// shard lock follows the pool's shard → session lock order.
func (p *sessionPool) remove(id string) bool {
	sh := p.shard(id)
	sh.mu.Lock()
	s, ok := sh.m[id]
	delete(sh.m, id)
	if ok {
		s.mu.Lock()
		if !s.gone { // an eviction may have retired it in parallel
			s.gone = true
			p.lowSimRetire.Add(s.lowSim)
		}
		s.mu.Unlock()
	}
	// The validateName guard keeps a crafted id from unlinking files
	// outside the state dir (resident ids were validated at create time,
	// but this path also runs for ids that were never resident).
	if p.dir != "" && validateName(id) == nil {
		if os.Remove(p.path(id)) == nil {
			ok = true // an evicted-to-disk session counts as existing
		}
	}
	sh.mu.Unlock()
	return ok
}

// dropIfSame removes a specific (gone) session object from the map — the
// cleanup a caller performs after losing the eviction race, so its retry
// reaches the checkpoint instead of the dead pointer.
func (p *sessionPool) dropIfSame(id string, s *session) {
	sh := p.shard(id)
	sh.mu.Lock()
	if cur, ok := sh.m[id]; ok && cur == s {
		delete(sh.m, id)
	}
	sh.mu.Unlock()
}

// assign feeds one row to the session, reporting found=false when no such
// session exists (in memory or on disk). It retries past an eviction that
// lands between lookup and lock: the evictor checkpointed the session before
// marking it gone, so the retry pages the up-to-date state back in and no
// arrival is lost. A non-empty reqID makes the call idempotent: retrying the
// same request id with the same row replays the cached response.
func (p *sessionPool) assign(id string, row []int, driftThreshold float64, reqID string) (stream.Assignment, bool, error) {
	for try := 0; try < 3; try++ {
		s, ok := p.get(id)
		if !ok {
			return stream.Assignment{}, false, nil
		}
		a, gone, err := p.addRow(id, s, row, driftThreshold, reqID)
		if !gone {
			return a, true, err
		}
		p.dropIfSame(id, s)
	}
	return stream.Assignment{}, false, nil
}

// rowsEqual compares two rows element-wise.
func rowsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// addRow feeds one row under the session mutex, tracking drift and recency.
// In replicated mode it enforces the two fault-tolerance invariants: a
// retried request id replays the cached response without re-applying the
// row, and a fresh row is checkpointed (and shipped to the replica holder)
// before the assignment is returned — so the replica can always resume from
// the exact state that produced every delivered response.
func (p *sessionPool) addRow(id string, s *session, row []int, driftThreshold float64, reqID string) (stream.Assignment, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gone {
		return stream.Assignment{}, true, nil
	}
	s.lastUse = time.Now()
	if reqID != "" && reqID == s.lastReqID && rowsEqual(row, s.lastRow) {
		p.replayed.Add(1)
		return s.lastA, false, nil
	}
	a, err := s.c.Add(row)
	if err != nil {
		return a, false, err
	}
	if a.Similarity < driftThreshold {
		s.lowSim++
	}
	s.lastReqID = reqID
	s.lastRow = append(s.lastRow[:0], row...)
	s.lastA = a
	s.dirty = true
	if p.replicate && p.dir != "" {
		// Checkpoint-before-respond. A local write failure is fatal for the
		// request: answering without a durable checkpoint would let a later
		// failover replay this row and diverge.
		if err := p.saveLocked(id, s); err != nil {
			return stream.Assignment{}, false, fmt.Errorf("server: checkpoint before respond: %w", err)
		}
	}
	return a, false, err
}

// stateLocked snapshots a session into its persistable StreamState,
// stamping the replication fields; the caller holds s.mu. Note Snapshot
// rotates the session's random stream — in replicated mode this runs once
// per assignment, making the rotation cadence itself deterministic.
func (p *sessionPool) stateLocked(s *session) *model.StreamState {
	st := s.c.Snapshot()
	st.OwnerEpoch = s.ownerEpoch
	st.LastReqID = s.lastReqID
	st.LastRow = s.lastRow
	st.LastCluster = s.lastA.Cluster
	st.LastSimilarity = s.lastA.Similarity
	st.LastModelEpoch = s.lastA.ModelEpoch
	return st
}

// saveLocked checkpoints a session; the caller holds s.mu. Serializing every
// file write through the session mutex keeps the checkpoint file monotone:
// a slow periodic sweep can never overwrite the newer state an eviction just
// flushed. In replicated mode the same bytes are then shipped to the ring
// successor; a ship failure is logged and counted but does not fail the
// checkpoint — the local file stays authoritative and /healthz surfaces the
// coverage gap.
func (p *sessionPool) saveLocked(id string, s *session) error {
	started := time.Now()
	st := p.stateLocked(s)
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		return err
	}
	if err := writeFileAtomic(p.path(id), buf.Bytes()); err != nil {
		return err
	}
	p.checkpoints.Add(1)
	s.dirty = false
	if p.ckpt != nil {
		p.ckpt.observe(time.Since(started))
	}
	if repl := p.repl.Load(); repl != nil {
		if target, err := repl.ship(id, buf.Bytes()); err != nil {
			p.shipFailures.Add(1)
			p.log.Warn("replica ship failed", "session", id, "target", target, "err", err)
		} else if target != "" {
			p.shipped.Add(1)
		}
	}
	return nil
}

// checkpointAll flushes every live session to disk and returns how many
// checkpoints were written. It is the periodic sweep, the graceful-shutdown
// flush, and the POST /checkpoint handler.
func (p *sessionPool) checkpointAll() int {
	if p.dir == "" {
		return 0
	}
	n := 0
	for _, sh := range p.shards {
		sh.mu.RLock()
		ids := make([]string, 0, len(sh.m))
		ss := make([]*session, 0, len(sh.m))
		for id, s := range sh.m {
			ids = append(ids, id)
			ss = append(ss, s)
		}
		sh.mu.RUnlock()
		for i, s := range ss {
			s.mu.Lock()
			// In replicated mode every assignment already checkpointed, so a
			// clean session is skipped: re-snapshotting would rotate its
			// random stream off the replicated reference trajectory.
			if !s.gone && !(p.replicate && !s.dirty) {
				if err := p.saveLocked(ids[i], s); err != nil {
					p.log.Warn("session checkpoint failed", "session", ids[i], "err", err)
				} else {
					n++
				}
			}
			s.mu.Unlock()
		}
	}
	return n
}

// sweep evicts sessions idle longer than ttl and returns how many went. In a
// durable pool eviction checkpoints first (the session spills to disk and
// pages back in on next touch); in a memory-only pool eviction is deletion.
// Busy sessions are skipped via TryLock — a held mutex means the session is
// mid-arrival and by definition not idle.
func (p *sessionPool) sweep(ttl time.Duration) int {
	if ttl <= 0 {
		return 0
	}
	cutoff := time.Now().Add(-ttl)
	n := 0
	for _, sh := range p.shards {
		sh.mu.RLock()
		ids := make([]string, 0, len(sh.m))
		ss := make([]*session, 0, len(sh.m))
		for id, s := range sh.m {
			ids = append(ids, id)
			ss = append(ss, s)
		}
		sh.mu.RUnlock()
		for i, s := range ss {
			if !s.mu.TryLock() {
				continue
			}
			if s.gone || s.lastUse.After(cutoff) {
				s.mu.Unlock()
				continue
			}
			if p.dir != "" && !(p.replicate && !s.dirty) {
				if err := p.saveLocked(ids[i], s); err != nil {
					p.log.Warn("eviction checkpoint failed; keeping session in memory", "session", ids[i], "err", err)
					s.mu.Unlock()
					continue
				}
			}
			s.gone = true
			p.lowSimRetire.Add(s.lowSim)
			s.mu.Unlock()
			p.dropIfSame(ids[i], s)
			n++
		}
	}
	p.evicted.Add(int64(n))
	return n
}

// restoreAll pages every checkpointed session back in — the startup path
// that makes a restart transparent. Unreadable checkpoints are logged and
// left in place for inspection; they do not block the boot.
func (p *sessionPool) restoreAll() int {
	if p.dir == "" {
		return 0
	}
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		p.log.Warn("restore sessions failed", "dir", p.dir, "err", err)
		return 0
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), checkpointExt) {
			continue
		}
		id := strings.TrimSuffix(e.Name(), checkpointExt)
		if validateName(id) != nil {
			continue
		}
		if _, ok := p.get(id); ok { // get performs the page-in
			n++
		}
	}
	return n
}

// ids lists the resident session ids (live in memory; checkpointed-only
// sessions are enumerated from disk when the pool is durable).
func (p *sessionPool) ids() []string {
	seen := make(map[string]struct{})
	for _, sh := range p.shards {
		sh.mu.RLock()
		for id, s := range sh.m {
			s.mu.Lock()
			gone := s.gone
			s.mu.Unlock()
			if !gone {
				seen[id] = struct{}{}
			}
		}
		sh.mu.RUnlock()
	}
	if p.dir != "" {
		if entries, err := os.ReadDir(p.dir); err == nil {
			for _, e := range entries {
				if e.IsDir() || !strings.HasSuffix(e.Name(), checkpointExt) {
					continue
				}
				id := strings.TrimSuffix(e.Name(), checkpointExt)
				if validateName(id) == nil {
					seen[id] = struct{}{}
				}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	return out
}

// residentEpoch reports the ownership epoch of a session held by this pool
// (in memory or on disk), for fencing incoming replica ships.
func (p *sessionPool) residentEpoch(id string) (int64, bool) {
	s, ok := p.get(id)
	if !ok {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gone {
		return 0, false
	}
	return s.ownerEpoch, true
}

// checkpointBytes returns the session's current checkpoint file contents —
// the migration source. In replicated mode the file is already current after
// every assignment and is served as-is (a fresh snapshot would rotate the
// random stream and break byte-identity across the migration); otherwise the
// session is flushed first.
func (p *sessionPool) checkpointBytes(id string) ([]byte, error) {
	if p.dir == "" {
		return nil, fmt.Errorf("server: no state dir; sessions are not persistable")
	}
	s, ok := p.get(id)
	if ok && !p.replicate {
		s.mu.Lock()
		if !s.gone {
			if err := p.saveLocked(id, s); err != nil {
				s.mu.Unlock()
				return nil, err
			}
		}
		s.mu.Unlock()
	}
	if validateName(id) != nil {
		return nil, fs.ErrNotExist
	}
	return os.ReadFile(p.path(id))
}

// promote turns this pool's replica of id into the live, owned session with
// a bumped ownership epoch. Idempotent when the session is already resident
// at the same or a newer epoch. No new snapshot is taken — the replica's
// StreamState is re-encoded with only the epoch changed, so the promoted
// session resumes on exactly the rotation state that produced the previous
// owner's last response.
func (p *sessionPool) promote(id string) (int64, error) {
	var data []byte
	if p.replicas != nil {
		data, _ = p.replicas.take(id)
	}
	if data == nil {
		// No replica held: this promote can only succeed if the session is
		// already resident — an earlier promote consumed the replica and the
		// gateway is retrying (the idempotent path).
		if e, ok := p.residentEpoch(id); ok {
			return e, nil
		}
		return 0, fs.ErrNotExist
	}
	epoch, err := p.install(id, data, true)
	if err != nil {
		return 0, err
	}
	p.promoted.Add(1)
	return epoch, nil
}

// adopt installs a migrated session from checkpoint bytes (the ring
// join/leave path), bumping the ownership epoch to fence the previous owner.
// Idempotent when the session is already resident at the same or a newer
// epoch; a stale resident copy (lower epoch) is replaced, never kept.
func (p *sessionPool) adopt(id string, data []byte) (int64, error) {
	epoch, err := p.install(id, data, true)
	if err != nil {
		return 0, err
	}
	p.adopted.Add(1)
	// The session moved here; any replica this pool held for it is obsolete.
	if p.replicas != nil {
		p.replicas.drop(id)
	}
	return epoch, nil
}

// install decodes checkpoint bytes, optionally bumps the ownership epoch,
// persists the state, and registers the live session. The persisted bytes
// are the incoming state re-encoded (never re-snapshotted).
//
// Installation is epoch-fenced in both directions: a resident copy — live in
// memory or checkpointed on disk — whose ownership epoch is at or above the
// incoming (bumped) epoch wins and is kept (the idempotent-retry and
// raced-installer path), while a resident copy at a lower epoch is stale by
// construction (this daemon lost the session to a promotion or migration —
// e.g. it was SIGKILLed and rejoined with its old state dir — and the
// session moved on elsewhere) and is retired and replaced, so traffic never
// routes to a state that would silently drop the post-failover suffix.
func (p *sessionPool) install(id string, data []byte, bumpEpoch bool) (int64, error) {
	st, err := model.LoadStream(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	if bumpEpoch {
		st.OwnerEpoch++
	}
	c, err := stream.Restore(st)
	if err != nil {
		return 0, err
	}
	s := sessionFromState(c, st)
	sh := p.shard(id)
	sh.mu.Lock()
	if cur, ok := sh.m[id]; ok {
		cur.mu.Lock()
		if !cur.gone {
			if cur.ownerEpoch >= st.OwnerEpoch {
				e := cur.ownerEpoch
				cur.mu.Unlock()
				sh.mu.Unlock()
				return e, nil
			}
			// Stale resident copy: the incoming epoch fences it.
			cur.gone = true
			p.lowSimRetire.Add(cur.lowSim)
		}
		cur.mu.Unlock()
		delete(sh.m, id)
	}
	if p.dir != "" {
		// An evicted or pre-restart checkpoint may also hold a newer epoch
		// than the incoming state; compare before overwriting the file (lazy
		// page-in resurrects the kept copy on next touch).
		if old, err := model.LoadStreamFile(p.path(id)); err == nil && old.OwnerEpoch >= st.OwnerEpoch {
			sh.mu.Unlock()
			return old.OwnerEpoch, nil
		}
		var buf bytes.Buffer
		if err := st.Save(&buf); err != nil {
			sh.mu.Unlock()
			return 0, err
		}
		if err := writeFileAtomic(p.path(id), buf.Bytes()); err != nil {
			sh.mu.Unlock()
			return 0, err
		}
	}
	sh.m[id] = s
	sh.mu.Unlock()
	// Give the promoted/adopted session a replica of its own right away: ship
	// the epoch-bumped state to this node's successor.
	if repl := p.repl.Load(); repl != nil && p.dir != "" {
		if fileData, err := os.ReadFile(p.path(id)); err == nil {
			if target, err := repl.ship(id, fileData); err != nil {
				p.shipFailures.Add(1)
				p.log.Warn("replica ship failed after install", "session", id, "target", target, "err", err)
			} else if target != "" {
				p.shipped.Add(1)
			}
		}
	}
	return st.OwnerEpoch, nil
}

func (p *sessionPool) count() int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// lowSimTotal sums the drift counters across live sessions plus the retired
// counts of evicted and deleted ones, so the exported counter stays
// monotone when sessions leave memory.
func (p *sessionPool) lowSimTotal() int64 {
	n := p.lowSimRetire.Load()
	for _, sh := range p.shards {
		sh.mu.RLock()
		for _, s := range sh.m {
			s.mu.Lock()
			n += s.lowSim
			s.mu.Unlock()
		}
		sh.mu.RUnlock()
	}
	return n
}
