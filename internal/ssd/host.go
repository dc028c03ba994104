package ssd

import (
	"fmt"

	"repro/internal/stats"
)

// HostQueue is one NVMe-style submission queue: its own workload
// stream and its own closed-loop depth. Multiple queues share the
// device and contend for dies, channels and the ECC engines — the
// multi-queue setting MQSim was built to study.
type HostQueue struct {
	Workload Workload
	Depth    int
}

// QueueMetrics reports one queue's share of a multi-queue run.
type QueueMetrics struct {
	RequestsCompleted int
	BytesRead         int64
	BytesWritten      int64
	ReadLatencies     stats.Sample
}

// Bandwidth reports the queue's achieved bandwidth in MB/s over the
// run's makespan.
func (q *QueueMetrics) Bandwidth(makespan float64) float64 {
	if makespan <= 0 {
		return 0
	}
	return float64(q.BytesRead+q.BytesWritten) / 1e6 / makespan
}

// RunQueues executes a multi-queue closed-loop run: each queue keeps
// Depth requests outstanding and issues nPerQueue requests in total.
// It returns the device-level metrics plus per-queue breakdowns.
func (s *SSD) RunQueues(queues []HostQueue, nPerQueue int) (*Metrics, []QueueMetrics, error) {
	if s.cfg.OpenLoop {
		return nil, nil, fmt.Errorf("ssd: multi-queue host is closed-loop-only but OpenLoop is set; use Run for open-loop replay")
	}
	if len(queues) == 0 {
		return nil, nil, fmt.Errorf("ssd: no host queues")
	}
	if nPerQueue <= 0 {
		return nil, nil, fmt.Errorf("ssd: nPerQueue = %d", nPerQueue)
	}
	s.queues = queues
	s.queueLeft = make([]int, len(queues))
	s.queueStats = make([]QueueMetrics, len(queues))
	for qi := range queues {
		if queues[qi].Workload == nil {
			return nil, nil, fmt.Errorf("ssd: queue %d has no workload", qi)
		}
		depth := queues[qi].Depth
		if depth <= 0 {
			depth = s.cfg.QueueDepth
		}
		if depth > nPerQueue {
			depth = nPerQueue
		}
		s.queueLeft[qi] = nPerQueue
		for i := 0; i < depth; i++ {
			s.issueQueued(qi)
		}
	}

	s.eng.Run()
	if err := s.finishRun(); err != nil {
		return nil, nil, err
	}
	return &s.m, s.queueStats, nil
}

// issueQueued admits host queue qi's next request, if its budget
// allows. Its completion runs the shared completeRequest step, then
// comes back here: each queue keeps its own depth outstanding.
//
//riflint:hotpath
func (s *SSD) issueQueued(qi int) {
	if s.queueLeft[qi] == 0 {
		return
	}
	s.queueLeft[qi]--
	q := &s.queues[qi]
	r := s.newRequest(q.Workload.Next(), s.eng.Now(), queueHost)
	r.queue = qi
	// Cold-age lookups route through the owning queue's workload.
	r.wl = q.Workload
	s.admit(r)
}
