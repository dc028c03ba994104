package ssd

import (
	"repro/internal/sim"
)

// DiePolicy selects how a die schedules reads against programs and
// erases.
type DiePolicy int

const (
	// DieFIFO serves operations strictly in arrival order (the
	// baseline used for all paper-calibrated results).
	DieFIFO DiePolicy = iota
	// DieReadPriority serves queued reads before queued programs but
	// never interrupts a running operation.
	DieReadPriority
	// DieSuspension additionally suspends an in-flight program or
	// erase when a read arrives, resuming it afterwards with a
	// resume penalty — the read-program suspension modern chips
	// implement (and MQSim-E models).
	DieSuspension
)

// String names the policy.
func (p DiePolicy) String() string {
	switch p {
	case DieFIFO:
		return "fifo"
	case DieReadPriority:
		return "read-priority"
	case DieSuspension:
		return "suspension"
	}
	return "unknown"
}

// stepper is a parked continuation: a command record, a die flusher,
// or a test probe. A station holding one of its occupancies calls step
// when the occupancy completes; the record's own state says what comes
// next. Stations store the stepper in a value slot of a reused FIFO, so
// handing one over allocates nothing.
type stepper interface {
	step()
}

// dieOp is one array operation, queued by value.
type dieOp struct {
	dur    sim.Time
	isRead bool
	label  string
	owner  stepper // resumed on completion; nil for background occupancy
}

// dieStation schedules one die's array operations. Unlike the plain
// FIFO resource it can prioritize reads and suspend programs.
type dieStation struct {
	eng           *sim.Engine
	policy        DiePolicy
	resumePenalty sim.Time
	name          string
	// record, when non-nil, receives each completed occupancy (for
	// timeline rendering).
	record func(resource, label string, start, end sim.Time)

	readQ sim.FIFO[dieOp]
	progQ sim.FIFO[dieOp]

	running   bool
	cur       dieOp // the running op, valid while running
	start     sim.Time
	finishAt  sim.Time
	finishEvt sim.EventID
	onFinish  sim.Handler // d.finish, bound once
	// suspended holds preempted programs, LIFO; each one's dur is its
	// remaining time plus the resume penalty.
	suspended []dieOp

	// suspensions counts program/erase preemptions, for metrics.
	suspensions int64
	// qHigh is the queue-depth high-water mark (reads + programs +
	// suspended), for observability.
	qHigh int
}

// noteDepth refreshes the queue-depth high-water mark.
//
//riflint:hotpath
func (d *dieStation) noteDepth() {
	depth := d.readQ.Len() + d.progQ.Len() + len(d.suspended)
	if d.running {
		depth++
	}
	if depth > d.qHigh {
		d.qHigh = depth
	}
}

func newDieStation(eng *sim.Engine, policy DiePolicy, resumePenalty sim.Time) *dieStation {
	d := &dieStation{eng: eng, policy: policy, resumePenalty: resumePenalty}
	d.onFinish = d.finish
	return d
}

// Read schedules a labeled sense operation of the given duration;
// owner resumes when it completes.
//
//riflint:hotpath
func (d *dieStation) Read(dur sim.Time, label string, owner stepper) {
	op := dieOp{dur: dur, isRead: true, label: label, owner: owner}
	if d.policy == DieFIFO {
		d.progQ.Push(op) // single queue in FIFO mode
	} else {
		d.readQ.Push(op)
	}
	d.noteDepth()
	d.maybePreempt()
	d.kick()
}

// Program schedules a program/erase/GC occupancy; owner, if non-nil,
// resumes when it completes.
//
//riflint:hotpath
func (d *dieStation) Program(dur sim.Time, owner stepper) {
	d.progQ.Push(dieOp{dur: dur, label: "W", owner: owner})
	d.noteDepth()
	d.kick()
}

// maybePreempt suspends a running program when policy allows and a
// read is waiting.
//
//riflint:hotpath
func (d *dieStation) maybePreempt() {
	if d.policy != DieSuspension || !d.running || d.cur.isRead || d.readQ.Len() == 0 {
		return
	}
	remaining := d.finishAt - d.eng.Now()
	if remaining <= 0 {
		return // completing this instant
	}
	d.eng.Cancel(d.finishEvt)
	op := d.cur
	op.dur = remaining + d.resumePenalty
	//riflint:allow alloc -- suspension stack high-water growth: bounded by the program ops one die can have preempted at once
	d.suspended = append(d.suspended, op)
	d.suspensions++
	d.running = false
	d.cur = dieOp{}
}

// kick starts the next operation if the die is free.
//
//riflint:hotpath
func (d *dieStation) kick() {
	if d.running {
		return
	}
	switch {
	case d.readQ.Len() > 0:
		d.cur = d.readQ.Pop()
	case len(d.suspended) > 0:
		// Resume the most recently suspended program.
		n := len(d.suspended) - 1
		d.cur = d.suspended[n]
		d.suspended[n] = dieOp{}
		d.suspended = d.suspended[:n]
	case d.progQ.Len() > 0:
		d.cur = d.progQ.Pop()
	default:
		return
	}
	d.running = true
	d.start = d.eng.Now()
	d.finishAt = d.start + d.cur.dur
	d.finishEvt = d.eng.After(d.cur.dur, d.onFinish)
}

// finish completes the running op: record its span, resume its owner,
// then start whatever is next.
//
//riflint:hotpath
func (d *dieStation) finish() {
	op := d.cur
	d.running = false
	d.cur = dieOp{}
	if d.record != nil {
		d.record(d.name, op.label, d.start, d.eng.Now())
	}
	if op.owner != nil {
		op.owner.step()
	}
	d.kick()
}

// Idle reports whether the die has no running or queued work.
func (d *dieStation) Idle() bool {
	return !d.running && d.readQ.Len() == 0 && d.progQ.Len() == 0 && len(d.suspended) == 0
}

// Suspensions reports how many preemptions occurred.
func (d *dieStation) Suspensions() int64 { return d.suspensions }
