package kernel

import (
	"fmt"
	"time"

	"graftlab/internal/telemetry"
	"graftlab/internal/vclock"
)

// Proc is a simulated process known to the scheduler.
type Proc struct {
	PID      int
	Name     string
	Runtime  time.Duration // virtual CPU time consumed
	Deadline time.Duration // optional deadline hint, 0 if none
	Tag      uint32        // application-defined hint visible to policies
}

// SchedPolicy is the Prioritization hook for the scheduler: given the run
// queue, return the index of the process to run next, or -1 to accept the
// kernel's round-robin choice. An out-of-range index is rejected and
// counted, mirroring the pager's validation of graft proposals.
type SchedPolicy interface {
	PickNext(runnable []*Proc) (int, error)
}

// SchedPolicyFunc adapts a function to SchedPolicy.
type SchedPolicyFunc func(runnable []*Proc) (int, error)

// PickNext calls f.
func (f SchedPolicyFunc) PickNext(runnable []*Proc) (int, error) { return f(runnable) }

// SchedStats counts scheduler activity.
type SchedStats struct {
	Dispatches      uint64
	PolicyCalls     uint64
	PolicyOverrides uint64
	PolicyRejected  uint64
	PolicyErrors    uint64
}

// Scheduler is a quantum-based scheduler with a Prioritization hook, the
// paper's third example of prioritization policy ("no scheduling
// algorithm is appropriate for all application mixes", §3.1).
type Scheduler struct {
	clock   *vclock.Clock
	quantum time.Duration
	runq    []*Proc
	policy  SchedPolicy
	stats   SchedStats
	nextPID int
}

// NewScheduler builds a scheduler with the given time quantum.
func NewScheduler(quantum time.Duration, clock *vclock.Clock) *Scheduler {
	return &Scheduler{clock: clock, quantum: quantum, nextPID: 1}
}

// Spawn adds a process to the run queue.
func (s *Scheduler) Spawn(name string, tag uint32) *Proc {
	p := &Proc{PID: s.nextPID, Name: name, Tag: tag}
	s.nextPID++
	s.runq = append(s.runq, p)
	return p
}

// SetPolicy installs (or removes, with nil) the pick-next hook.
func (s *Scheduler) SetPolicy(policy SchedPolicy) { s.policy = policy }

// Stats returns a copy of the counters.
func (s *Scheduler) Stats() SchedStats { return s.stats }

// Runnable returns the current run queue (shared slice; do not mutate).
func (s *Scheduler) Runnable() []*Proc { return s.runq }

// Tick dispatches one quantum and returns the process that ran. The
// default policy is round-robin: the head of the queue runs and moves to
// the tail. A traced dispatch is a "kernel:sched" root span carrying the
// pid, the run-queue index picked and 1 if the policy overrode.
func (s *Scheduler) Tick() (*Proc, error) {
	if len(s.runq) == 0 {
		return nil, fmt.Errorf("kernel: empty run queue")
	}
	sp := telemetry.RootSpan("kernel:sched", "kernel")
	idx := 0
	override := uint64(0)
	if s.policy != nil {
		s.stats.PolicyCalls++
		pick, err := s.policy.PickNext(s.runq)
		switch {
		case err != nil:
			s.stats.PolicyErrors++
		case pick < 0:
			// policy declined; keep round-robin choice
		case pick >= len(s.runq):
			s.stats.PolicyRejected++
		default:
			if pick != 0 {
				s.stats.PolicyOverrides++
				override = 1
			}
			idx = pick
		}
	}
	p := s.runq[idx]
	s.runq = append(s.runq[:idx], s.runq[idx+1:]...)
	s.runq = append(s.runq, p)
	p.Runtime += s.quantum
	s.clock.Advance(s.quantum)
	s.stats.Dispatches++
	if sp.Active() {
		sp.End(uint64(p.PID), uint64(idx), override)
	}
	return p, nil
}

// Exit removes a process from the run queue.
func (s *Scheduler) Exit(pid int) bool {
	for i, p := range s.runq {
		if p.PID == pid {
			s.runq = append(s.runq[:i], s.runq[i+1:]...)
			return true
		}
	}
	return false
}
