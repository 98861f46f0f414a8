//! Inference serving: the per-job request-arrival process, serving
//! rounds that reserve KV state per request, and burst absorption by
//! shrinking an elastic training neighbour.

use capuchin::elastic_batches;
use capuchin_sim::{Duration, Time};

use super::session::{EventKind, Session};
use super::Cluster;
use crate::job::JobClass;
use crate::stats::JobEventKind;

impl Cluster {
    /// Schedules `job`'s next request arrival, until `spec.requests`
    /// have been generated. Inter-arrival gaps are exponential around
    /// `1 / request_rate`, drawn from the job's own deterministic
    /// generator — the arrival process is a property of the workload,
    /// never of scheduling decisions, so request events carry epoch 0
    /// and ignore epoch bumps entirely.
    pub(super) fn schedule_next_request(&mut self, s: &mut Session, job: usize, now: Time) {
        let j = &mut s.jobs[job];
        if j.req_scheduled >= j.spec.requests {
            return;
        }
        j.req_scheduled += 1;
        // Clamp the unit draw away from 0 so the log stays finite; the
        // rate was validated positive at parse time (code-built specs
        // defensively floor it here too).
        let u = j.req_rng.unit_f64().max(1e-12);
        let rate = j.spec.request_rate.max(1e-9);
        let gap = Duration::from_secs_f64(-u.ln() / rate);
        s.push(now + gap, EventKind::ReqArrive, job, 0);
    }

    /// Opens a serving round for a resident, idle inference job: up to
    /// `max_inflight` requests move from the queue into the round, each
    /// reserving its KV state on every held replica for the round's
    /// duration. Live headroom gates every slot — the admission-time
    /// license ([`JobRun::lic_inflight`]) priced the grant, but memory
    /// freed since (completions, elastic shrinks) raises the achievable
    /// concurrency without re-admission. A KV-blocked backlog asks an
    /// elastic training neighbour to shrink ([`Cluster::absorb_burst`]).
    ///
    /// [`JobRun::lic_inflight`]: super::session::JobRun::lic_inflight
    pub(super) fn try_serve(&mut self, s: &mut Session, job: usize, now: Time) {
        {
            let j = &s.jobs[job];
            if !j.spec.is_inference()
                || j.gpus_held.is_empty()
                || j.iterating
                || j.preempting
                || !j.inflight.is_empty()
                || j.pending_regrow.is_some()
                || j.terminal()
                || j.req_queue.is_empty()
            {
                return;
            }
        }
        let kv = s.jobs[job].spec.kv_bytes_per_request;
        let lic = s.jobs[job].spec.max_inflight.max(1);
        let held = s.jobs[job].gpus_held.clone();
        let mut admitted = 0usize;
        while admitted < lic && !s.jobs[job].req_queue.is_empty() {
            if kv > 0 {
                // Every replica mirrors the KV state, so the tightest
                // held device gates each admission individually — the
                // round never over-commits by a single request.
                if !held.iter().all(|&g| s.pool.headroom(g) >= kv) {
                    break;
                }
                for &gpu in &held {
                    s.reserve_on(gpu, kv, now);
                }
                s.jobs[job].reserved += kv;
            }
            let t0 = s.jobs[job]
                .req_queue
                .pop_front()
                .expect("loop condition checked non-empty");
            s.jobs[job].inflight.push(t0);
            admitted += 1;
        }
        if admitted > 0 && s.schedule_iter(job, now).is_err() {
            s.abort(job, now);
            return;
        }
        if admitted < lic && !s.jobs[job].req_queue.is_empty() {
            self.absorb_burst(s, job);
        }
    }

    /// Marks an inference serving round complete: every in-flight
    /// request is served at this instant — its latency recorded in
    /// integer nanoseconds and judged against the SLO — and its KV
    /// reservation released. The job then either completes (all
    /// requests served) or immediately opens the next round over the
    /// queued backlog.
    pub(super) fn complete_round(&mut self, s: &mut Session, job: usize, now: Time) {
        // Same first-boundary check as training: an under-shot predicted
        // grant requeues the round's requests and re-enters admission on
        // the measured path before anything is banked.
        if self.verify_prediction(s, job, now) {
            return;
        }
        let j = &mut s.jobs[job];
        j.bank_iteration();
        let served = std::mem::take(&mut j.inflight);
        let n = served.len() as u64;
        j.requests_served += n;
        // One "sample" per request keeps the existing progress and
        // throughput accounting meaningful for serving jobs.
        j.samples_done = j.requests_served;
        let (iter, samples_done) = (j.iters_done, j.samples_done);
        let slo_ns = j.slo_ns;
        s.log(now, job, JobEventKind::IterationDone { iter, samples_done });
        for &t0 in &served {
            let latency = now.saturating_since(t0);
            s.jobs[job].latencies.push(latency.as_nanos());
            s.log(now, job, JobEventKind::RequestServed { latency });
            if slo_ns > 0 && latency.as_nanos() > slo_ns {
                s.jobs[job].slo_misses += 1;
                s.log(now, job, JobEventKind::SloMissed { latency });
            }
        }
        // The round's KV state drains with it.
        let kv = s.jobs[job].spec.kv_bytes_per_request.saturating_mul(n);
        if kv > 0 {
            s.release_kv(job, kv, now);
        }
        if s.jobs[job].requests_served >= s.jobs[job].spec.requests {
            s.finish(job, now);
            self.feed_predictor(s, job);
            return;
        }
        // Backlog waiting: the next round opens in the same instant.
        self.try_serve(s, job, now);
    }

    /// Finds an elastic training neighbour to shrink one ladder rung so
    /// `job`'s KV-blocked backlog can be served. The victim must hold
    /// *every* deficient device (a gang re-batches whole), have a rung
    /// left below its current batch, and no batch change already in
    /// flight; the lowest-priority such resident is asked. The shrink
    /// itself is deferred to the victim's next completed-iteration
    /// boundary — the only instant a batch change is sound.
    fn absorb_burst(&mut self, s: &mut Session, job: usize) {
        if !self.cfg.elastic {
            return;
        }
        let kv = s.jobs[job].spec.kv_bytes_per_request;
        if kv == 0 {
            return;
        }
        let deficient: Vec<usize> = s.jobs[job]
            .gpus_held
            .iter()
            .copied()
            .filter(|&g| s.pool.headroom(g) < kv)
            .collect();
        if deficient.is_empty() {
            return;
        }
        let candidates: Vec<usize> = {
            let jobs = &s.jobs;
            let mut v: Vec<usize> = s
                .resident_jobs
                .iter()
                .copied()
                .filter(|&v| {
                    let t = &jobs[v];
                    t.spec.class == JobClass::Training
                        && t.spec.elastic
                        && !t.preempting
                        && t.pending_regrow.is_none()
                        && t.pending_shrink.is_none()
                        && deficient.iter().all(|d| t.gpus_held.contains(d))
                })
                .collect();
            v.sort_by_key(|&c| (jobs[c].spec.priority, c));
            v
        };
        for v in candidates {
            let ladder = elastic_batches(s.jobs[v].spec.batch, self.cfg.min_batch_fraction);
            let cur = s.jobs[v].cur_batch;
            // The ladder is descending: the first rung under the current
            // batch is the smallest shrink that frees any memory.
            if let Some(target) = ladder.into_iter().find(|&b| b < cur) {
                s.jobs[v].pending_shrink = Some(target);
                return;
            }
        }
    }
}
