package serve

import (
	"sync/atomic"
	"time"

	"failatomic/internal/dispatch"
	"failatomic/internal/inject"
	"failatomic/internal/sched"
)

// metrics are the expvar-style counters behind GET /metrics: monotonic
// _total counters plus live gauges (jobs_running, the queue_depth family
// — computed at render time from the scheduler — and crontabs_active).
type metrics struct {
	jobsQueued        atomic.Int64 // jobs admitted (incl. boot-resumed)
	jobsRejected      atomic.Int64 // 429s from a full queue
	quotaRejections   atomic.Int64 // 429s from a tenant's MaxQueued quota
	jobsRunning       atomic.Int64 // gauge
	jobsDone          atomic.Int64
	jobsFailed        atomic.Int64
	jobsCancelled     atomic.Int64
	jobsDrifted       atomic.Int64 // completed jobs the drift gate tripped on
	jobsParked        atomic.Int64 // running jobs returned to the queue by a drain
	jobsConcur        atomic.Int64 // concur jobs admitted (incl. boot-resumed)
	runsExecuted      atomic.Int64 // freshly executed injector runs
	runsSpliced       atomic.Int64 // runs recovered from journals at resume
	pointsQuarantined atomic.Int64
	crontabFired      atomic.Int64 // jobs submitted by crontab firings
	crontabSkipped    atomic.Int64 // firings refused by admission (full/quota)
	queueWaitMax      atomic.Int64 // longest observed queue wait, nanoseconds

	// Predicted-snapshot misses (inject.Result.PredictMisses) of
	// in-process detect and repair jobs: runs redone because they
	// diverged from their clean run.
	snapshotPredictMisses atomic.Int64
}

// noteQueued counts one admitted or boot-resumed job, and its kind's
// admission counter.
func (m *metrics) noteQueued(spec JobSpec) {
	m.jobsQueued.Add(1)
	if spec.JobKind() == KindConcur {
		m.jobsConcur.Add(1)
	}
}

// noteSnapshots folds one campaign's predicted-snapshot misses in.
func (m *metrics) noteSnapshots(res *inject.Result) {
	m.snapshotPredictMisses.Add(int64(res.PredictMisses))
}

// noteQueueWait folds one observed admission→dequeue latency into the
// queue_wait_seconds_max high-water mark.
func (m *metrics) noteQueueWait(d time.Duration) {
	for {
		cur := m.queueWaitMax.Load()
		if int64(d) <= cur || m.queueWaitMax.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// queueGauges are the queue-shaped gauges the server (which owns the
// scheduler) supplies at render time.
type queueGauges struct {
	depth      int
	byKind     map[string]int
	byPriority map[sched.Priority]int
	crontabs   int
}

// snapshot renders the counters as a flat name→value map; g is supplied
// by the server and ds by the dispatch coordinator (which owns the
// worker fleet and its leases).
func (m *metrics) snapshot(g queueGauges, ds dispatch.Stats) map[string]int64 {
	return map[string]int64{
		"jobs_queued_total":        m.jobsQueued.Load(),
		"jobs_rejected_total":      m.jobsRejected.Load(),
		"quota_rejections_total":   m.quotaRejections.Load(),
		"jobs_running":             m.jobsRunning.Load(),
		"jobs_done_total":          m.jobsDone.Load(),
		"jobs_failed_total":        m.jobsFailed.Load(),
		"jobs_cancelled_total":     m.jobsCancelled.Load(),
		"jobs_drifted_total":       m.jobsDrifted.Load(),
		"jobs_parked_total":        m.jobsParked.Load(),
		"runs_executed_total":      m.runsExecuted.Load(),
		"runs_spliced_total":       m.runsSpliced.Load(),
		"points_quarantined_total": m.pointsQuarantined.Load(),
		"jobs_concur_total":        m.jobsConcur.Load(),
		"queue_depth":              int64(g.depth),
		"queue_depth_detect":       int64(g.byKind[KindDetect]),
		"queue_depth_repair":       int64(g.byKind[KindRepair]),
		"queue_depth_concur":       int64(g.byKind[KindConcur]),
		"queue_depth_high":         int64(g.byPriority[sched.High]),
		"queue_depth_normal":       int64(g.byPriority[sched.Normal]),
		"queue_depth_low":          int64(g.byPriority[sched.Low]),
		"queue_wait_seconds_max":   int64(time.Duration(m.queueWaitMax.Load()).Seconds()),
		"crontabs_active":          int64(g.crontabs),
		"crontab_fired_total":      m.crontabFired.Load(),
		"crontab_skipped_total":    m.crontabSkipped.Load(),

		// Snapshot telemetry of in-process campaign jobs.
		"snapshot_predict_misses_total": m.snapshotPredictMisses.Load(),

		// Dispatch: the distributed-execution slice.
		"workers_registered_total": ds.WorkersRegisteredTotal,
		"workers_live":             ds.WorkersLive,
		"leases_held":              ds.LeasesHeld,
		"lease_expirations_total":  ds.LeaseExpirationsTotal,
		"runs_shipped_total":       ds.RunsShippedTotal,
		"jobs_failed_over_total":   ds.JobsFailedOverTotal,
	}
}
