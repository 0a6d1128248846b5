package runtime

import (
	"fmt"
	"sync"
	"time"

	"socflow/internal/metrics"
	"socflow/internal/transport"
)

// Elastic recovery: where the plan-driven degradation path (PR 2)
// shrinks groups by consulting shared configuration, the elastic path
// *observes* failures. Workers train in barrier-delimited rounds (one
// epoch per round); a heartbeat failure detector declares silent
// members dead; a failed round is retried from the last good in-memory
// snapshot under a bounded budget; and when the cluster trace hands a
// preempted SoC back, the recovery manager re-admits it with a
// leader-served state transfer and re-expands the proportional batch
// split at the next epoch boundary.

// RecoveryConfig switches RunDistributed to the elastic path and
// tunes it. The zero value of each field picks a default suited to
// in-process meshes; raise the heartbeat knobs for real networks.
type RecoveryConfig struct {
	// HeartbeatInterval is how often every node beats every peer.
	// Default 3ms.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a node may stay silent before the
	// failure detector declares it dead. Default 150ms.
	HeartbeatTimeout time.Duration
	// MaxRetries bounds how many times one epoch may be retried after
	// detected failures before the run aborts. Default 3.
	MaxRetries int
	// RetryBackoff is the base pause before re-releasing a failed
	// epoch; attempt k waits k*RetryBackoff. Default 5ms.
	RetryBackoff time.Duration
	// Rejoins schedules re-admissions: Node returns at the boundary of
	// epoch Epoch. The node must be dead by then (a crash window whose
	// Until point is at or before (Epoch, 0)), or the entry is held
	// until it is.
	Rejoins []Rejoin
}

// Rejoin is one scheduled node return, typically derived from the
// tidal trace's preemption-end events.
type Rejoin struct {
	Node  int
	Epoch int
}

func (rc RecoveryConfig) withDefaults() RecoveryConfig {
	if rc.HeartbeatInterval <= 0 {
		rc.HeartbeatInterval = 3 * time.Millisecond
	}
	if rc.HeartbeatTimeout <= 0 {
		rc.HeartbeatTimeout = 150 * time.Millisecond
	}
	if rc.MaxRetries <= 0 {
		rc.MaxRetries = 3
	}
	if rc.RetryBackoff <= 0 {
		rc.RetryBackoff = 5 * time.Millisecond
	}
	return rc
}

// RecoveryStats summarizes what the elastic machinery did during a
// run.
type RecoveryStats struct {
	// Detections is how many workers the heartbeat detector declared
	// dead.
	Detections int
	// Rejoins is how many scheduled returns were admitted.
	Rejoins int
	// Retries is how many epoch retries were released.
	Retries int
	// MembershipEpoch is the final membership version: it increments
	// on every detected departure and every admission.
	MembershipEpoch int
	// StateTransferBytes is the total serialized state shipped to
	// rejoining nodes.
	StateTransferBytes int64
}

// roundInfo describes one released training round: a (epoch, attempt)
// pair with a frozen membership view every participant shares.
type roundInfo struct {
	seq     int
	epoch   int
	attempt int
	// restore tells workers to reset model/optimizer/data-cursor state
	// to the start of round.epoch before training (retry rounds).
	restore bool
	gen     uint32
	// memEpoch is the membership version this round runs under.
	memEpoch int
	// liveByGroup[g] lists group g's live members this round (empty
	// for extinct groups). Frozen for the round: collectives use it
	// instead of re-deriving membership per iteration.
	liveByGroup [][]int
	leaders     []int
	global      int
	// joiners maps each rejoining participant to the donor node that
	// serves its state at round start.
	joiners map[int]int
	failed  bool
}

func (r *roundInfo) has(node int) bool {
	for _, g := range r.liveByGroup {
		for _, m := range g {
			if m == node {
				return true
			}
		}
	}
	return false
}

// donees returns the joiners a donor serves this round, ascending.
func (r *roundInfo) donees(donor int) []int {
	var out []int
	for j, d := range r.joiners {
		if d == donor {
			out = append(out, j)
		}
	}
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k] < out[k-1]; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// recoveryManager supervises elastic workers: a generation barrier
// between rounds, a heartbeat supervisor that turns silence into
// membership changes, retry accounting, and the rejoin schedule.
type recoveryManager struct {
	cfg     *DistConfig
	rc      RecoveryConfig
	hb      *transport.HeartbeatMesh
	reg     *metrics.Registry
	workers []int // node IDs hosting workers, ascending
	groups  [][]int
	spawnFn func(node int) // respawns a rejoiner's worker goroutine

	mu      sync.Mutex
	cond    *sync.Cond
	arrived map[int]bool
	dead    map[int]bool
	// joining maps an admitted rejoiner to the epoch it is due: it
	// stays parked at the barrier, out of every released round, until a
	// round of that epoch (or later) releases — a failure elsewhere may
	// retroactively turn the next release into a retry of an *earlier*
	// epoch, which the joiner must sit out.
	joining    map[int]int
	rejoinUsed []bool
	cur        *roundInfo
	relSeq     int
	pending    bool // a delayed retry release is armed
	fatal      error
	done       bool
	closed     bool
	stats      RecoveryStats

	stop chan struct{}
	wg   sync.WaitGroup
}

func newRecoveryManager(cfg *DistConfig, rc RecoveryConfig, hb *transport.HeartbeatMesh, nodeGroup []int) *recoveryManager {
	m := &recoveryManager{
		cfg:        cfg,
		rc:         rc,
		hb:         hb,
		reg:        cfg.Metrics,
		groups:     cfg.Groups,
		arrived:    make(map[int]bool),
		dead:       make(map[int]bool),
		joining:    make(map[int]int),
		rejoinUsed: make([]bool, len(rc.Rejoins)),
		stop:       make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	for id, g := range nodeGroup {
		if g >= 0 {
			m.workers = append(m.workers, id)
		}
	}
	return m
}

// start launches the supervisor loop that polls the failure detector.
func (m *recoveryManager) start() {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		period := m.rc.HeartbeatTimeout / 4
		if period < m.rc.HeartbeatInterval {
			period = m.rc.HeartbeatInterval
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
			m.superviseOnce()
		}
	}()
}

// superviseOnce takes one failure-detector reading: any monitored
// worker silent past the timeout is declared dead. Joining nodes are
// exempt while their join round is still gathering — they are parked
// process-local goroutines whose endpoints stay crashed until the
// round's release revives them.
func (m *recoveryManager) superviseOnce() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.done || m.fatal != nil {
		return
	}
	for _, x := range m.workers {
		if m.dead[x] {
			continue
		}
		if _, j := m.joining[x]; j && (m.cur == nil || !m.cur.has(x)) {
			continue
		}
		if !m.hb.Alive(x) {
			m.declareDeadLocked(x)
		}
	}
	m.checkReadyLocked()
}

// close wakes every waiter and stops supervision. Safe to call more
// than once.
func (m *recoveryManager) close() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.stop)
		m.cond.Broadcast()
	}
	m.mu.Unlock()
	m.wg.Wait()
}

// completed reports whether every configured epoch finished.
func (m *recoveryManager) completed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.done
}

// snapshot copies the stats out under the lock.
func (m *recoveryManager) snapshot() RecoveryStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

func (m *recoveryManager) addTransferBytes(n int64) {
	m.mu.Lock()
	m.stats.StateTransferBytes += n
	m.mu.Unlock()
	m.reg.Counter("recovery.statetransfer.bytes").Add(n)
}

// next is the worker-facing barrier. The worker reports how its last
// round ended (last == nil on first call; err != nil for a recoverable
// failure), then blocks until a newer round that includes it releases.
// Returns (nil, nil) when training is complete or the worker has been
// (even wrongly) written out of the membership; a non-nil error is
// fatal for the worker.
func (m *recoveryManager) next(me int, last *roundInfo, lastErr error) (*roundInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if last != nil && lastErr != nil {
		m.markFailedLocked(last, lastErr)
	}
	want := 1
	if last != nil {
		want = last.seq + 1
	}
	m.arrived[me] = true
	m.checkReadyLocked()
	for {
		switch {
		case m.fatal != nil:
			return nil, m.fatal
		case m.closed:
			return nil, fmt.Errorf("runtime: recovery manager closed: %w", transport.ErrMeshClosed)
		case m.done:
			return nil, nil
		case m.dead[me]:
			// The detector wrote this worker out (e.g. a false positive
			// under a too-tight timeout). The run continues without it.
			return nil, nil
		}
		if m.cur != nil && m.cur.seq >= want && m.cur.has(me) {
			return m.cur, nil
		}
		m.cond.Wait()
	}
}

// declareDeadLocked records a detected departure: membership epoch
// bumps, peers stop beating the corpse, and the current round (if the
// corpse is in it) is marked failed.
func (m *recoveryManager) declareDeadLocked(x int) {
	if m.dead[x] {
		return
	}
	m.dead[x] = true
	delete(m.joining, x)
	m.stats.Detections++
	m.stats.MembershipEpoch++
	m.hb.MarkDead(x)
	m.reg.Counter("recovery.detections").Inc()
	m.reg.Gauge("recovery.membership.epoch").Set(float64(m.stats.MembershipEpoch))
	epoch := 0
	if m.cur != nil {
		epoch = m.cur.epoch
	}
	m.reg.Emit(metrics.Event{Kind: metrics.KindDetect, Epoch: epoch, Node: x, Detail: "missed heartbeats"})
	if m.cur != nil && !m.cur.failed && m.cur.has(x) {
		m.markFailedLocked(m.cur, fmt.Errorf("worker %d missed heartbeats", x))
	}
	m.cond.Broadcast()
}

// markFailedLocked marks a round failed once, charges the retry
// budget, and interrupts the surviving participants so they unwind to
// the barrier.
func (m *recoveryManager) markFailedLocked(r *roundInfo, cause error) {
	if r != m.cur || r.failed || m.closed || m.fatal != nil {
		return
	}
	r.failed = true
	// Interrupt the surviving participants either way: a worker parked
	// in a collective on the corpse can only observe the outcome —
	// retry or fatal — from the barrier.
	for _, g := range r.liveByGroup {
		for _, p := range g {
			if !m.dead[p] {
				m.hb.Interrupt(p, transport.ErrRoundAborted)
			}
		}
	}
	if r.attempt+1 > m.rc.MaxRetries {
		m.failLocked(fmt.Errorf("runtime: epoch %d retry budget exhausted after %d attempts: %w",
			r.epoch, r.attempt+1, cause))
		return
	}
	m.cond.Broadcast()
}

// failLocked records a fatal error and wakes everyone.
func (m *recoveryManager) failLocked(err error) {
	if m.fatal == nil {
		m.fatal = err
	}
	m.cond.Broadcast()
}

// nextParams derives the (epoch, attempt, restore) of the round that
// should release next from the current round's outcome.
func (m *recoveryManager) nextParams() (epoch, attempt int, restore bool) {
	switch {
	case m.cur == nil:
		return 0, 0, false
	case m.cur.failed:
		return m.cur.epoch, m.cur.attempt + 1, true
	default:
		return m.cur.epoch + 1, 0, false
	}
}

// liveWorkers counts workers neither dead nor joining — the nodes that
// hold authoritative model state.
func (m *recoveryManager) liveWorkers() int {
	n := 0
	for _, x := range m.workers {
		if _, j := m.joining[x]; !m.dead[x] && !j {
			n++
		}
	}
	return n
}

// checkReadyLocked is the barrier's readiness engine: it admits due
// rejoins, and when every expected participant of the next round has
// arrived it releases the round (after a backoff for retries).
func (m *recoveryManager) checkReadyLocked() {
	if m.closed || m.done || m.fatal != nil || m.pending {
		return
	}
	nextEpoch, _, _ := m.nextParams()
	if m.cur != nil && !m.cur.failed && nextEpoch >= m.cfg.Epochs {
		// The current round was the last epoch; wait for all its
		// participants to account for themselves, then finish.
		if m.allExpectedArrived() {
			m.done = true
			m.cond.Broadcast()
		}
		return
	}
	m.admitRejoinsLocked(nextEpoch)
	if len(m.expected()) == 0 {
		// No live worker can ever arrive: the run is unrecoverable.
		m.failLocked(fmt.Errorf("runtime: no live workers remain at epoch %d", nextEpoch))
		return
	}
	if !m.allExpectedArrived() {
		return
	}
	_, attempt, _ := m.nextParams()
	if attempt > 0 {
		m.pending = true
		delay := time.Duration(attempt) * m.rc.RetryBackoff
		time.AfterFunc(delay, func() {
			m.mu.Lock()
			m.pending = false
			if !m.closed && m.fatal == nil && m.allExpectedArrived() {
				m.releaseLocked()
			}
			m.mu.Unlock()
		})
		return
	}
	m.releaseLocked()
}

// expected lists the nodes that must reach the barrier before the next
// round can release.
func (m *recoveryManager) expected() []int {
	var out []int
	for _, x := range m.workers {
		if !m.dead[x] {
			out = append(out, x)
		}
	}
	return out
}

func (m *recoveryManager) allExpectedArrived() bool {
	for _, x := range m.expected() {
		if !m.arrived[x] {
			return false
		}
	}
	return true
}

// admitRejoinsLocked moves due scheduled returns from dead to joining
// and respawns their worker goroutines. Each schedule entry fires at
// most once.
func (m *recoveryManager) admitRejoinsLocked(nextEpoch int) {
	for i, rj := range m.rc.Rejoins {
		if m.rejoinUsed[i] || !m.dead[rj.Node] || rj.Epoch > nextEpoch {
			continue
		}
		if m.liveWorkers() == 0 {
			m.failLocked(fmt.Errorf("runtime: no live donor for node %d rejoining at epoch %d", rj.Node, nextEpoch))
			return
		}
		m.rejoinUsed[i] = true
		delete(m.dead, rj.Node)
		m.joining[rj.Node] = rj.Epoch
		m.stats.Rejoins++
		m.stats.MembershipEpoch++
		m.hb.MarkAlive(rj.Node) // grace before first beats; streams reset at release
		m.reg.Counter("recovery.rejoins").Inc()
		m.reg.Gauge("recovery.membership.epoch").Set(float64(m.stats.MembershipEpoch))
		m.reg.Emit(metrics.Event{Kind: metrics.KindRejoin, Epoch: nextEpoch, Node: rj.Node})
		if m.spawnFn != nil {
			m.spawnFn(rj.Node)
		}
	}
}

// releaseLocked builds and publishes the next round: frozen live
// membership, leader ring, donor assignments, transport revival of
// joiners, generation stamping, and interrupt clearing.
func (m *recoveryManager) releaseLocked() {
	epoch, attempt, restore := m.nextParams()
	if epoch >= m.cfg.Epochs {
		m.done = true
		m.cond.Broadcast()
		return
	}
	// A joiner whose join round committed is a full member now; only
	// still-pending joiners get a fresh state transfer below.
	if m.cur != nil && !m.cur.failed {
		for x := range m.joining {
			if m.cur.has(x) {
				delete(m.joining, x)
			}
		}
	}
	m.relSeq++
	r := &roundInfo{
		seq:         m.relSeq,
		epoch:       epoch,
		attempt:     attempt,
		restore:     restore,
		gen:         uint32(m.relSeq),
		memEpoch:    m.stats.MembershipEpoch,
		liveByGroup: make([][]int, len(m.groups)),
		joiners:     make(map[int]int),
	}
	for g, members := range m.groups {
		for _, x := range members {
			if m.dead[x] {
				continue
			}
			// A joiner due later than this round's epoch stays parked at
			// the barrier: it has no state to retry an earlier epoch with.
			if due, j := m.joining[x]; j && due > epoch {
				continue
			}
			r.liveByGroup[g] = append(r.liveByGroup[g], x)
		}
		if lv := r.liveByGroup[g]; len(lv) > 0 {
			r.leaders = append(r.leaders, lv[0])
		}
	}
	if len(r.leaders) == 0 {
		m.failLocked(fmt.Errorf("runtime: no group has a live member at epoch %d", epoch))
		return
	}
	r.global = r.leaders[0]

	// Donor assignment: a joiner's state comes from a live non-joining
	// member of its own group when one exists, else from any veteran —
	// weights are identical across groups at epoch boundaries, so every
	// veteran's snapshot is authoritative.
	for x, due := range m.joining {
		if due > epoch {
			continue
		}
		donor := -1
		for g, members := range m.groups {
			if rankOf(x, members) < 0 {
				continue
			}
			for _, c := range r.liveByGroup[g] {
				if _, cj := m.joining[c]; c != x && !cj {
					donor = c
					break
				}
			}
		}
		if donor < 0 {
			for _, c := range m.workers {
				_, cj := m.joining[c]
				if c != x && !m.dead[c] && !cj {
					donor = c
					break
				}
			}
		}
		if donor < 0 {
			m.failLocked(fmt.Errorf("runtime: no live donor for rejoining node %d", x))
			return
		}
		r.joiners[x] = donor
	}

	// Revive joiner transports: tick the fault clock to the round
	// start (their crash windows have ended by schedule), clear stale
	// streams, and respawn dead pumps.
	for x := range r.joiners {
		if t, ok := m.hb.Node(x).(transport.FaultTicker); ok {
			t.TickFault(r.epoch, 0)
		}
		m.hb.MarkAlive(x)
		m.hb.ResetStreams(x)
	}
	for _, g := range r.liveByGroup {
		for _, p := range g {
			m.hb.Resume(p)
			m.hb.SetGeneration(p, r.gen)
		}
	}
	if attempt > 0 {
		m.stats.Retries++
		m.reg.Counter("recovery.retries").Inc()
		m.reg.Emit(metrics.Event{Kind: metrics.KindRetry, Epoch: epoch, Iter: attempt})
	}
	// Only the round's participants leave the barrier; anyone parked
	// (e.g. a not-yet-due joiner) stays arrived for the next release.
	arrived := make(map[int]bool)
	for _, x := range m.workers {
		if m.arrived[x] && !r.has(x) {
			arrived[x] = true
		}
	}
	m.arrived = arrived
	m.cur = r
	m.cond.Broadcast()
}
