//! The composed simulated HPC center.
//!
//! One discrete-event loop multiplexes every subsystem: job arrivals,
//! application steps (with I/O through the parallel filesystem and QoS
//! admission), walltime enforcement, maintenance outages, power
//! telemetry, and user resubmission behaviour.
//!
//! The [`World`] exposes two distinct surfaces:
//!
//! * **sensor/actuator methods** — what a MAPE-K loop may touch:
//!   progress markers from telemetry, remaining allocation, config
//!   snapshots, observed OST bandwidth; extension requests, checkpoint
//!   signals, file reopen-with-avoid, QoS retuning, misconfiguration
//!   correction. Monitors/executors hold an `Rc<RefCell<World>>` and
//!   borrow per phase.
//! * **ground-truth methods** — what only experiment harnesses may use
//!   for scoring (true remaining work, profiles). These are marked in
//!   their docs; loops that peeked would be cheating.

use crate::app::{AppInstance, AppProfile};
use crate::failure::FailureConfig;
use crate::power::PowerModel;
use moda_pfs::{FileId, OstId, Pfs, PfsConfig, QosManager};
use moda_scheduler::{
    ExtensionDecision, ExtensionPolicy, JobId, JobRequest, JobState, Scheduler, SchedulerConfig,
};
use moda_sim::stats::Summary;
use moda_sim::{EventQueue, RngStreams, SimDuration, SimTime};
use moda_telemetry::{MetricId, MetricMeta, SourceDomain, Tsdb, WindowAgg};
use std::collections::HashMap;

/// World configuration.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Cluster node count.
    pub nodes: u32,
    /// Scheduler extension policy.
    pub policy: ExtensionPolicy,
    /// Parallel filesystem configuration.
    pub pfs: PfsConfig,
    /// Root RNG seed (all stochastic behaviour derives from it).
    pub seed: u64,
    /// Power model.
    pub power: PowerModel,
    /// Power-sensor sampling period (None disables power telemetry).
    pub power_period: Option<SimDuration>,
    /// Fail-stop node-failure injection (None disables failures).
    pub failure: Option<FailureConfig>,
    /// Do users resubmit killed jobs?
    pub auto_resubmit: bool,
    /// How long a user takes to notice and resubmit.
    pub resubmit_delay: SimDuration,
    /// Walltime padding factor users apply on retry.
    pub resubmit_walltime_factor: f64,
    /// Embed quantile sketches in the per-job progress-marker rollup
    /// pyramids, making [`World::progress_percentile_wide`] sketch-served
    /// (1 % relative error) however far the raw marker ring has rolled.
    /// On by default; campaigns with very high job cardinality can turn
    /// it off to keep the compact pyramids sketch-free (~8 bytes per
    /// distinct marker magnitude per bucket), at which point wide
    /// percentile reads fall back to the exact raw path within raw
    /// retention.
    pub progress_sketches: bool,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            nodes: 32,
            policy: ExtensionPolicy::default(),
            pfs: PfsConfig::default(),
            seed: 42,
            power: PowerModel::default(),
            power_period: Some(SimDuration::from_secs(60)),
            failure: None,
            auto_resubmit: true,
            resubmit_delay: SimDuration::from_mins(10),
            resubmit_walltime_factor: 1.5,
            progress_sketches: true,
        }
    }
}

/// Campaign-level outcome counters.
#[derive(Debug, Clone, Default)]
pub struct WorldMetrics {
    /// Job attempts that completed.
    pub completed: u64,
    /// Job attempts killed at the walltime limit.
    pub timed_out: u64,
    /// Job attempts killed by maintenance outages.
    pub maintenance_killed: u64,
    /// Job attempts killed by injected node failures.
    pub failures: u64,
    /// Resubmissions performed.
    pub resubmits: u64,
    /// Distinct submitted root jobs.
    pub roots_total: u64,
    /// Root jobs whose work eventually completed.
    pub roots_completed: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// On-the-fly misconfiguration corrections applied.
    pub corrections: u64,
    /// Application steps completed.
    pub steps_completed: u64,
    /// I/O bursts served.
    pub io_writes: u64,
}

#[derive(Debug, Clone)]
enum Event {
    Arrival(u32),
    Step(JobId, u64),
    CheckpointDone(JobId, u64),
    DeadlineCheck,
    OutageStart,
    OutageEnd,
    PowerSample,
    NodeFailure,
}

/// The simulated center.
pub struct World {
    cfg: WorldConfig,
    queue: EventQueue<Event>,
    /// The batch scheduler (public: harnesses read accounting).
    pub sched: Scheduler,
    /// The parallel filesystem.
    pub pfs: Pfs,
    /// QoS allocations (I/O admission per user).
    pub qos: QosManager,
    /// Holistic telemetry store.
    pub tsdb: Tsdb,
    /// Campaign counters.
    pub metrics: WorldMetrics,

    arriving: Vec<Option<(JobRequest, AppProfile)>>,
    apps: HashMap<JobId, AppInstance>,
    profiles: HashMap<JobId, AppProfile>,
    requests: HashMap<JobId, JobRequest>,
    step_seq: HashMap<JobId, u64>,
    files: HashMap<JobId, FileId>,
    avoid_lists: HashMap<JobId, Vec<OstId>>,
    resume_steps: HashMap<JobId, u64>,
    root_of: HashMap<JobId, JobId>,
    progress_metric: HashMap<JobId, MetricId>,
    /// Watermark cursors of [`World::export_progress`] — persistent, so
    /// repeated snapshots ship only each job's *new* markers and newly
    /// sealed pyramid buckets.
    progress_exporter: moda_telemetry::Exporter,
    io_latency: HashMap<String, Summary>,
    streams: RngStreams,
    next_job_id: u64,
    power_sensor_rng: rand::rngs::StdRng,
    failure_rng: rand::rngs::StdRng,
    /// Facility power cap (kW). When the uncapped facility draw would
    /// exceed it, node sensors and the facility meter report the capped
    /// (proportionally scaled) draw — the actuation surface of a
    /// center-level power-management loop.
    power_cap_kw: Option<f64>,
    /// Is a NodeFailure event outstanding in the queue? Prevents
    /// [`World::set_failure`] from stacking duplicate failure processes:
    /// one armed event per world is the invariant (each firing re-arms).
    failure_armed: bool,
    /// Failures already exported through the `sched.failures` rate
    /// gauge (the gauge reports deltas between samples).
    failures_sampled: u64,
    /// Earliest armed DeadlineCheck, if any. Prevents duplicate checks
    /// from flooding the queue: every schedule pass wants to "make sure"
    /// a check exists, but one outstanding check per deadline epoch is
    /// enough (each check re-arms the next on firing).
    armed_deadline: Option<SimTime>,
    /// Time of the last event that represented campaign work (arrival,
    /// step, kill, completion). Stale bookkeeping events — e.g. a
    /// DeadlineCheck armed for a walltime limit the job never reached —
    /// may sit in the queue long after the campaign is over, so the
    /// campaign makespan must come from here rather than the clock.
    last_progress: SimTime,
}

impl World {
    /// Build an empty world.
    pub fn new(cfg: WorldConfig) -> Self {
        let sched = Scheduler::new(SchedulerConfig {
            total_nodes: cfg.nodes,
            policy: cfg.policy,
        });
        let pfs = Pfs::new(cfg.pfs.clone());
        let streams = RngStreams::new(cfg.seed);
        let power_sensor_rng = streams.stream("power-sensor");
        let failure_rng = streams.stream("node-failures");
        let mut w = World {
            sched,
            pfs,
            qos: QosManager::new(),
            tsdb: Tsdb::new(),
            metrics: WorldMetrics::default(),
            queue: EventQueue::new(),
            arriving: Vec::new(),
            apps: HashMap::new(),
            profiles: HashMap::new(),
            requests: HashMap::new(),
            step_seq: HashMap::new(),
            files: HashMap::new(),
            avoid_lists: HashMap::new(),
            resume_steps: HashMap::new(),
            root_of: HashMap::new(),
            progress_metric: HashMap::new(),
            progress_exporter: moda_telemetry::Exporter::new(),
            io_latency: HashMap::new(),
            streams,
            next_job_id: 0,
            power_sensor_rng,
            failure_rng,
            power_cap_kw: None,
            failure_armed: false,
            failures_sampled: 0,
            armed_deadline: None,
            last_progress: SimTime::ZERO,
            cfg,
        };
        if let Some(p) = w.cfg.power_period {
            w.queue.schedule(SimTime::ZERO + p, Event::PowerSample);
        }
        if let Some(f) = w.cfg.failure {
            let gap = f.next_gap(w.cfg.nodes, &mut w.failure_rng);
            w.queue.schedule(SimTime::ZERO + gap, Event::NodeFailure);
            w.failure_armed = true;
        }
        w
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Configuration (read-only).
    pub fn config(&self) -> &WorldConfig {
        &self.cfg
    }

    // ----- campaign setup ------------------------------------------------

    /// Queue a generated campaign for arrival. Job ids must be fresh.
    pub fn submit_campaign(&mut self, jobs: Vec<(JobRequest, AppProfile)>) {
        for (req, profile) in jobs {
            let at = req.submit;
            self.next_job_id = self.next_job_id.max(req.id.0 + 1);
            self.metrics.roots_total += 1;
            let idx = self.arriving.len() as u32;
            self.arriving.push(Some((req, profile)));
            self.queue.schedule(at, Event::Arrival(idx));
        }
    }

    /// Announce a maintenance outage `[start, end)`.
    pub fn add_outage(&mut self, start: SimTime, end: SimTime) {
        self.sched.add_outage(start, end);
        self.queue.schedule(start, Event::OutageStart);
        self.queue.schedule(end, Event::OutageEnd);
    }

    // ----- event loop ------------------------------------------------------

    /// Process all events at or before `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(ts) = self.queue.peek_time() {
            if ts > t {
                break;
            }
            let ev = self.queue.pop().expect("peeked event exists");
            self.handle(ev.at, ev.event);
        }
    }

    /// Run until the campaign finishes or `max_t` passes. Returns the
    /// final simulated time. Stale bookkeeping events (deadline checks
    /// armed for limits no running job will reach) are left unprocessed
    /// once no work remains, so the clock stops at the last real event.
    pub fn run_to_completion(&mut self, max_t: SimTime) -> SimTime {
        while self.work_remaining() {
            let Some(ts) = self.queue.peek_time() else {
                break;
            };
            if ts > max_t {
                break;
            }
            let ev = self.queue.pop().expect("peeked event exists");
            self.handle(ev.at, ev.event);
        }
        self.now()
    }

    /// Next pending event time (for harnesses interleaving loop ticks).
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Does any campaign work remain: applications running, jobs queued,
    /// or arrivals (including resubmissions) still to come?
    pub fn work_remaining(&self) -> bool {
        !self.apps.is_empty()
            || self.sched.queue_len() > 0
            || self.arriving.iter().any(Option::is_some)
    }

    /// Is all submitted work finished? (The event queue may still hold
    /// stale bookkeeping events; they cannot create new work.)
    pub fn drained(&self) -> bool {
        !self.work_remaining()
    }

    /// Time of the last event that represented campaign work — the
    /// campaign makespan once [`World::drained`] is true.
    pub fn last_progress(&self) -> SimTime {
        self.last_progress
    }

    fn note_progress(&mut self, t: SimTime) {
        if t > self.last_progress {
            self.last_progress = t;
        }
    }

    fn handle(&mut self, t: SimTime, ev: Event) {
        if matches!(
            ev,
            Event::Arrival(_) | Event::Step(..) | Event::CheckpointDone(..)
        ) {
            self.note_progress(t);
        }
        match ev {
            Event::Arrival(idx) => {
                let (req, profile) = self.arriving[idx as usize]
                    .take()
                    .expect("arrival consumed twice");
                let id = req.id;
                let resubmit = self.root_of.contains_key(&id);
                self.root_of.entry(id).or_insert(id);
                self.profiles.insert(id, profile);
                self.requests.insert(id, req.clone());
                self.sched.submit(t, req, resubmit);
                self.try_schedule(t);
            }
            Event::Step(id, seq) => {
                if self.step_seq.get(&id).copied() != Some(seq) {
                    return; // stale event (kill/checkpoint invalidated it)
                }
                if !self.apps.contains_key(&id) {
                    return;
                }
                self.complete_step(t, id);
            }
            Event::CheckpointDone(id, seq) => {
                if self.step_seq.get(&id).copied() != Some(seq) {
                    return;
                }
                if self.apps.contains_key(&id) {
                    self.schedule_next_step(t, id);
                }
            }
            Event::DeadlineCheck => {
                self.armed_deadline = None;
                let killed = self.sched.kill_expired(t);
                for id in killed {
                    self.handle_kill(t, id, JobState::TimedOut);
                }
                self.try_schedule(t);
                self.ensure_deadline_event();
            }
            Event::OutageStart => {
                let victims = self.sched.outage_kill(t);
                for id in victims {
                    self.handle_kill(t, id, JobState::MaintenanceKilled);
                }
            }
            Event::OutageEnd => {
                self.try_schedule(t);
            }
            Event::NodeFailure => {
                self.failure_armed = false;
                let Some(fcfg) = self.cfg.failure else { return };
                // A node crashes; the job running on it dies with it.
                // Failures on idle nodes are harmless at this fidelity.
                let running = self.sched.running_ids().to_vec();
                if !running.is_empty() {
                    use rand::Rng as _;
                    let victim = running[self.failure_rng.gen_range(0..running.len())];
                    self.metrics.failures += 1;
                    self.sched.fail(t, victim);
                    self.handle_kill(t, victim, JobState::Failed);
                    self.try_schedule(t);
                }
                // Re-arm while the campaign is alive (a dead campaign
                // must not be kept open by the failure process).
                if self.work_remaining() {
                    let gap = fcfg.next_gap(self.cfg.nodes, &mut self.failure_rng);
                    self.queue.schedule(t + gap, Event::NodeFailure);
                    self.failure_armed = true;
                }
            }
            Event::PowerSample => {
                self.sample_power(t);
                // Re-arm only while something can still happen; otherwise
                // the sampler would keep an otherwise-drained world alive.
                if !self.queue.is_empty() {
                    if let Some(p) = self.cfg.power_period {
                        self.queue.schedule(t + p, Event::PowerSample);
                    }
                }
            }
        }
    }

    // ----- stepping ---------------------------------------------------------

    fn try_schedule(&mut self, t: SimTime) {
        let started = self.sched.schedule(t);
        for id in started {
            let profile = self.profiles[&id].clone();
            let resume = self.resume_steps.get(&id).copied().unwrap_or(0);
            let rng = self.streams.stream_n("app-steps", id.0);
            let app = AppInstance::start(id, profile.clone(), t, resume, rng);
            // Open the app's output file honoring any avoid list carried
            // over from a previous attempt (OST-case response memory).
            let avoid = self.avoid_lists.get(&id).cloned().unwrap_or_default();
            let file = self.pfs.open(profile.stripe, &avoid);
            self.files.insert(id, file);
            self.apps.insert(id, app);
            let metric = self.tsdb.register(MetricMeta::counter(
                format!("job.{}.steps", id.0),
                "steps",
                SourceDomain::Application,
            ));
            // Per-job progress markers carry the compact rollup pyramid:
            // wide Analyze windows (overrun forecasting over hours of
            // history) read sealed 1m/1h buckets instead of raw markers,
            // sketched (unless configured off) so wide marker
            // percentiles are servable too. `ensure` not `enable`:
            // registration is idempotent by name, so if this attempt's
            // metric somehow already exists (each resubmitted attempt
            // normally gets a fresh id and metric), an existing
            // pyramid's sealed buckets — which outlive the raw ring —
            // must not be rebuilt from the raw tail.
            let rollup_cfg = if self.cfg.progress_sketches {
                moda_telemetry::RollupConfig::compact().with_sketches()
            } else {
                moda_telemetry::RollupConfig::compact()
            };
            self.tsdb.ensure_rollups(metric, &rollup_cfg);
            self.progress_metric.insert(id, metric);
            // Marker at step `resume` (the resume point) anchors the series.
            self.tsdb.insert(metric, t, resume as f64);
            self.schedule_next_step(t, id);
        }
        self.ensure_deadline_event();
    }

    fn schedule_next_step(&mut self, t: SimTime, id: JobId) {
        let (compute, io_delay) = {
            let app = self.apps.get_mut(&id).expect("scheduling step of live app");
            let compute = app.next_step_duration();
            let io = if app.step_does_io() {
                let mb = app.profile.io_mb;
                let user = self.requests[&id].user.clone();
                let qos_delay = self.qos.admit(t, &user, mb);
                let file = self.files[&id];
                let outcome = self.pfs.write(t, file, mb);
                let total = qos_delay + outcome.duration;
                app.io_wait_s += total.as_secs_f64();
                self.metrics.io_writes += 1;
                self.io_latency
                    .entry(user)
                    .or_default()
                    .push(total.as_secs_f64() * 1000.0);
                total
            } else {
                SimDuration::ZERO
            };
            (compute, io)
        };
        let seq = self.bump_seq(id);
        self.queue
            .schedule(t + compute + io_delay, Event::Step(id, seq));
    }

    fn complete_step(&mut self, t: SimTime, id: JobId) {
        let (done, step, metric) = {
            let app = self.apps.get_mut(&id).expect("live app");
            app.advance();
            (app.done(), app.step, self.progress_metric[&id])
        };
        self.metrics.steps_completed += 1;
        // Rank 0 drops its time-step (§III): the progress marker.
        self.tsdb.insert(metric, t, step as f64);
        if done {
            self.finish_job(t, id);
        } else {
            self.schedule_next_step(t, id);
        }
    }

    fn finish_job(&mut self, t: SimTime, id: JobId) {
        if let Some(file) = self.files.remove(&id) {
            self.pfs.close(file);
        }
        self.apps.remove(&id);
        self.sched.finish(t, id);
        self.metrics.completed += 1;
        self.metrics.roots_completed += 1;
        self.try_schedule(t);
    }

    fn handle_kill(&mut self, t: SimTime, id: JobId, _reason: JobState) {
        self.note_progress(t);
        if let Some(file) = self.files.remove(&id) {
            self.pfs.close(file);
        }
        let app = self.apps.remove(&id);
        self.step_seq.remove(&id);
        match self.sched.job(id).map(|j| j.state) {
            Some(JobState::TimedOut) => self.metrics.timed_out += 1,
            Some(JobState::MaintenanceKilled) => self.metrics.maintenance_killed += 1,
            _ => {}
        }
        if self.cfg.auto_resubmit {
            let old_req = self.requests[&id].clone();
            let profile = self.profiles[&id].clone();
            let checkpoint = app.map(|a| a.checkpoint_step).unwrap_or(0);
            let new_id = JobId(self.next_job_id);
            self.next_job_id += 1;
            let root = self.root_of[&id];
            self.root_of.insert(new_id, root);
            self.resume_steps.insert(new_id, checkpoint);
            // Carry the avoid list forward too.
            if let Some(avoid) = self.avoid_lists.get(&id).cloned() {
                self.avoid_lists.insert(new_id, avoid);
            }
            let new_req = JobRequest {
                id: new_id,
                submit: t + self.cfg.resubmit_delay,
                walltime: old_req.walltime.mul_f64(self.cfg.resubmit_walltime_factor),
                ..old_req
            };
            self.metrics.resubmits += 1;
            let at = new_req.submit;
            let idx = self.arriving.len() as u32;
            self.arriving.push(Some((new_req, profile)));
            self.queue.schedule(at, Event::Arrival(idx));
        }
    }

    fn bump_seq(&mut self, id: JobId) -> u64 {
        let e = self.step_seq.entry(id).or_insert(0);
        *e += 1;
        *e
    }

    fn ensure_deadline_event(&mut self) {
        if let Some(deadline) = self.sched.next_deadline() {
            let at = deadline.max(self.now());
            // Arm only if no check is outstanding or a strictly earlier
            // deadline appeared; a later-than-armed deadline is covered
            // by the re-arm when the armed check fires.
            let need = match self.armed_deadline {
                Some(armed) => at < armed,
                None => true,
            };
            if need {
                self.queue.schedule(at, Event::DeadlineCheck);
                self.armed_deadline = Some(at);
            }
        }
    }

    fn sample_power(&mut self, t: SimTime) {
        use rand::Rng as _;
        let total = self.cfg.nodes;
        let busy = total - self.sched.free_nodes();
        // Draw every node sensor before inserting: a facility power cap
        // applies proportionally across nodes, so the scale factor needs
        // the uncapped facility draw first. Draw order (and thus the RNG
        // stream) is identical to the uncapped path.
        let samples: Vec<f64> = (0..total)
            .map(|i| {
                self.cfg
                    .power
                    .node_sample(i < busy, &mut self.power_sensor_rng)
            })
            .collect();
        let kw = self.cfg.power.facility_kw(busy, total);
        let (kw, scale) = match self.power_cap_kw {
            Some(cap) if kw > cap => (cap, cap / kw),
            _ => (kw, 1.0),
        };
        // Per-node hardware sensors (registered lazily, ids stable).
        for (i, v) in samples.iter().enumerate() {
            let name = format!("node.{i}.power_w");
            let id = match self.tsdb.lookup(&name) {
                Some(id) => id,
                None => self
                    .tsdb
                    .register(MetricMeta::gauge(name, "W", SourceDomain::Hardware)),
            };
            self.tsdb.insert(id, t, v * scale);
        }
        // Facility meter.
        let fid = match self.tsdb.lookup("facility.power_kw") {
            Some(id) => id,
            None => self.tsdb.register(MetricMeta::gauge(
                "facility.power_kw",
                "kW",
                SourceDomain::Facility,
            )),
        };
        self.tsdb.insert(fid, t, kw);
        // Software-domain queue gauge.
        let qid = match self.tsdb.lookup("sched.queue_len") {
            Some(id) => id,
            None => self.tsdb.register(MetricMeta::gauge(
                "sched.queue_len",
                "jobs",
                SourceDomain::Software,
            )),
        };
        self.tsdb.insert(qid, t, self.sched.queue_len() as f64);
        // Reliability gauge: job-killing node failures since the last
        // sample. A rate (not the cumulative count) so windowed fleet
        // queries see the failure process stop as soon as it is
        // repaired, instead of integrating history forever.
        let fail_id = match self.tsdb.lookup("sched.failures") {
            Some(id) => id,
            None => self.tsdb.register(MetricMeta::gauge(
                "sched.failures",
                "jobs",
                SourceDomain::Software,
            )),
        };
        let delta = self.metrics.failures - self.failures_sampled;
        self.failures_sampled = self.metrics.failures;
        self.tsdb.insert(fail_id, t, delta as f64);
        let _ = self.power_sensor_rng.gen::<u8>(); // decorrelate successive sweeps
    }

    // ----- sensor surface (what loops may read) ------------------------------

    /// Running job ids.
    pub fn running_jobs(&self) -> Vec<JobId> {
        self.sched.running_ids().to_vec()
    }

    /// Progress markers of a job as `(t_seconds, steps)` pairs, most
    /// recent `n` markers, oldest-first — exactly what rank 0 dropped.
    pub fn progress_markers(&self, id: JobId, n: usize) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        self.progress_markers_into(id, n, &mut out);
        out
    }

    /// [`World::progress_markers`] into a caller-owned buffer: reads the
    /// TSDB through a borrowed [`moda_telemetry::SampleView`], so the only
    /// allocation is the caller's reusable output vector.
    pub fn progress_markers_into(&self, id: JobId, n: usize, out: &mut Vec<(f64, f64)>) {
        out.clear();
        if let Some(&m) = self.progress_metric.get(&id) {
            let view = self.tsdb.series(m).last_n_view(n);
            out.reserve(view.len());
            out.extend(view.into_iter().map(|s| (s.t.as_secs_f64(), s.value)));
        }
    }

    /// Most recent progress rate of a job (steps/second over the last `n`
    /// markers), computed allocation-free from the marker series.
    pub fn progress_rate(&self, id: JobId, n: usize) -> Option<f64> {
        let &m = self.progress_metric.get(&id)?;
        moda_telemetry::window::counter_rate_view(&self.tsdb.series(m).last_n_view(n))
    }

    /// Progress rate of a job over the trailing `window` (steps/second),
    /// served from the marker metric's rollup tier: computed as the
    /// marker delta `(max − min)` from pre-folded buckets over the span
    /// the job could actually have produced markers in — `window`,
    /// clamped to the attempt's age so a job younger than the window is
    /// not diluted. For a monotone step counter this equals the wide
    /// marker delta rate up to bucket-edge resolution. Unlike
    /// [`World::progress_rate`] (marker-count based, raw-ring bound),
    /// this stays O(window/res) however long the job has run, and keeps
    /// answering after the raw ring has evicted old markers. `None` when
    /// the window holds no markers or covers none of the job's lifetime.
    pub fn progress_rate_wide(&self, id: JobId, window: SimDuration) -> Option<f64> {
        let &m = self.progress_metric.get(&id)?;
        let now = self.now();
        // The marker series is anchored at the attempt's start (the
        // resume marker), so the attempt age bounds the data span.
        let start = self.sched.job(id).and_then(|j| j.start)?;
        let span = window.min(now.saturating_since(start)).as_secs_f64();
        if span <= 0.0 {
            return None;
        }
        let max = self.tsdb.window_agg(m, now, window, WindowAgg::Max)?;
        let min = self.tsdb.window_agg(m, now, window, WindowAgg::Min)?;
        Some((max - min).max(0.0) / span)
    }

    /// Wide percentile of a job's progress markers over the trailing
    /// `window` — e.g. the p10 marker value as a robust floor on how far
    /// the application had advanced through most of the window, immune
    /// to a late burst the way `max − min` rates are not. With
    /// [`WorldConfig::progress_sketches`] on (the default) this is
    /// served by merging sealed-bucket quantile sketches (1 % relative
    /// error, O(window/res)) and keeps answering beyond raw marker
    /// retention; sketch-free worlds fall back to the exact raw
    /// selection within retention. `None` when the window holds no
    /// markers or the job is unknown.
    pub fn progress_percentile_wide(&self, id: JobId, window: SimDuration, q: f64) -> Option<f64> {
        let &m = self.progress_metric.get(&id)?;
        self.tsdb
            .window_agg(m, self.now(), window, WindowAgg::Percentile(q))
    }

    /// Downsampled progress-marker history of a job over `[t0, t1)` in
    /// `bucket`-wide slots (the per-slot **last** marker; `None` marks
    /// slots without markers), into a caller-owned buffer. Wide spans are
    /// served from sealed rollup buckets — the Knowledge-layer shape of
    /// [`World::progress_markers`], usable far beyond raw retention.
    pub fn progress_history_into(
        &self,
        id: JobId,
        t0: SimTime,
        t1: SimTime,
        bucket: SimDuration,
        out: &mut Vec<Option<f64>>,
    ) {
        out.clear();
        if let Some(&m) = self.progress_metric.get(&id) {
            self.tsdb
                .resample_into(m, t0, t1, bucket, WindowAgg::Last, out);
        }
    }

    /// Snapshot every job's progress pyramid to an export sink — the
    /// §III.iii "variation of progress markers" dataset leaving the
    /// simulated center incrementally. Each job's marker metric ships
    /// its pending raw markers, sealed compact-pyramid buckets, and
    /// (with [`WorldConfig::progress_sketches`] on) sparse sketch
    /// columns; watermark cursors persist inside the world, so calling
    /// this periodically exports each marker and sealed bucket exactly
    /// once. Returns the drain's batch/record stats.
    pub fn export_progress<S: moda_telemetry::Sink>(
        &mut self,
        sink: &mut S,
    ) -> std::io::Result<moda_telemetry::DrainStats> {
        let mut ids: Vec<MetricId> = self.progress_metric.values().copied().collect();
        ids.sort_unstable();
        self.progress_exporter.drain_metrics(&self.tsdb, &ids, sink)
    }

    /// Total steps the application targets (the app knows its own input
    /// deck; legitimately observable by its loop).
    pub fn total_steps(&self, id: JobId) -> Option<u64> {
        self.profiles.get(&id).map(|p| p.total_steps)
    }

    /// Remaining allocation of a running job.
    pub fn remaining_alloc(&self, id: JobId) -> Option<SimDuration> {
        self.sched.job(id).and_then(|j| j.remaining(self.now()))
    }

    /// The job's configuration/utilization snapshot (misconfig sensor).
    pub fn config_snapshot(
        &mut self,
        id: JobId,
    ) -> Option<moda_analytics::misconfig::JobConfigSnapshot> {
        let app = self.apps.get_mut(&id)?;
        let util = app.cpu_util();
        let corrected = app.corrected;
        Some(app.profile.config_snapshot(corrected, util))
    }

    /// Observed per-stream bandwidth of an OST (None until it served I/O).
    pub fn observed_ost_bw(&self, ost: OstId) -> Option<f64> {
        self.pfs.observed_bw(ost)
    }

    /// Per-user I/O latency summary (ms), if the user did any I/O.
    pub fn io_latency(&self, user: &str) -> Option<&Summary> {
        self.io_latency.get(user)
    }

    /// App class of a job.
    pub fn app_class(&self, id: JobId) -> Option<&str> {
        self.requests.get(&id).map(|r| r.app_class.as_str())
    }

    /// The root (original submission) a job attempt belongs to.
    pub fn root_of(&self, id: JobId) -> Option<JobId> {
        self.root_of.get(&id).copied()
    }

    // ----- actuator surface (what loops may do) -------------------------------

    /// Fig. 3's Execute: ask the scheduler for more walltime.
    pub fn request_extension(&mut self, id: JobId, extra: SimDuration) -> ExtensionDecision {
        let now = self.now();
        let d = self.sched.request_extension(now, id, extra);
        if d.is_granted() {
            self.ensure_deadline_event();
        }
        d
    }

    /// Signal an application to checkpoint (asynchronous: stepping pauses
    /// for the checkpoint cost, then resumes). Returns false if the job
    /// is not running or already checkpointing.
    pub fn signal_checkpoint(&mut self, id: JobId) -> bool {
        let now = self.now();
        let Some(app) = self.apps.get_mut(&id) else {
            return false;
        };
        let cost = app.checkpoint();
        self.metrics.checkpoints += 1;
        let seq = self.bump_seq(id); // invalidates the in-flight step
        self.queue
            .schedule(now + cost, Event::CheckpointDone(id, seq));
        true
    }

    /// Correct a detected misconfiguration on the fly (§III case 4).
    pub fn correct_misconfig(&mut self, id: JobId) -> bool {
        match self.apps.get_mut(&id) {
            Some(app) => {
                let changed = app.correct_misconfig();
                if changed {
                    self.metrics.corrections += 1;
                }
                changed
            }
            None => false,
        }
    }

    /// Close and reopen a job's output file avoiding the given OSTs
    /// (the OST case's response). The avoid list persists across
    /// resubmissions of the job.
    pub fn reopen_avoiding(&mut self, id: JobId, avoid: Vec<OstId>) -> bool {
        if !self.apps.contains_key(&id) {
            return false;
        }
        if let Some(old) = self.files.remove(&id) {
            self.pfs.close(old);
        }
        let stripe = self.profiles[&id].stripe;
        let file = self.pfs.open(stripe, &avoid);
        self.files.insert(id, file);
        self.avoid_lists.insert(id, avoid);
        true
    }

    /// Cap (or uncap, with `None`) the facility power draw. While the
    /// uncapped draw would exceed the cap, power telemetry reports the
    /// capped draw with node sensors scaled proportionally — the
    /// center-level power-management response (§III power case at
    /// cluster scale).
    pub fn set_power_cap_kw(&mut self, cap: Option<f64>) {
        self.power_cap_kw = cap;
    }

    /// The facility power cap currently in force, if any.
    pub fn power_cap_kw(&self) -> Option<f64> {
        self.power_cap_kw
    }

    /// Replace (or disable, with `None`) the fail-stop node-failure
    /// process at runtime — the repair/mitigation actuator: a response
    /// loop that has diagnosed a failing node can stop the bleeding with
    /// `set_failure(None)`, and a chaos harness can switch aggressive
    /// failure injection on mid-campaign. Arms the failure process if it
    /// was idle; never stacks a second one.
    pub fn set_failure(&mut self, failure: Option<FailureConfig>) {
        self.cfg.failure = failure;
        if let Some(f) = self.cfg.failure {
            if !self.failure_armed {
                let gap = f.next_gap(self.cfg.nodes, &mut self.failure_rng);
                let at = self.now() + gap;
                self.queue.schedule(at, Event::NodeFailure);
                self.failure_armed = true;
            }
        }
    }

    /// Retune a user's QoS allocation (I/O-QoS case's response).
    pub fn set_qos_rate(&mut self, user: &str, rate: f64) -> bool {
        let now = self.now();
        self.qos.set_rate(now, user, rate)
    }

    /// Register a QoS tenant.
    pub fn register_qos(&mut self, user: &str, rate: f64, burst: f64) {
        self.qos.register(user, rate, burst);
    }

    // ----- ground truth (harness/scoring only) --------------------------------

    /// Ground truth: the profile of a job. **Harness use only** — a loop
    /// reading this is cheating.
    pub fn ground_truth_profile(&self, id: JobId) -> Option<&AppProfile> {
        self.profiles.get(&id)
    }

    /// Ground truth: expected seconds of work remaining for a running
    /// job (compute only). **Harness use only.**
    pub fn ground_truth_remaining_s(&self, id: JobId) -> Option<f64> {
        let app = self.apps.get(&id)?;
        let p = &app.profile;
        let mut s = 0.0;
        for step in app.step..p.total_steps {
            let frac = step as f64 / p.total_steps.max(1) as f64;
            let mut mean = p.mean_step_s;
            if let Some(pc) = p.phase_change {
                if frac >= pc.at_frac {
                    mean *= pc.factor;
                }
            }
            if let Some(m) = &p.misconfig {
                if !app.corrected {
                    mean *= m.slowdown;
                }
            }
            s += mean;
        }
        Some(s)
    }

    /// Ground truth: the original request of a job attempt.
    pub fn request_of(&self, id: JobId) -> Option<&JobRequest> {
        self.requests.get(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, WorkloadConfig};

    fn small_world(seed: u64) -> World {
        World::new(WorldConfig {
            nodes: 8,
            seed,
            power_period: None,
            resubmit_delay: SimDuration::from_secs(60),
            ..WorldConfig::default()
        })
    }

    fn quick_job(
        id: u64,
        nodes: u32,
        steps: u64,
        step_s: f64,
        wall_s: u64,
    ) -> (JobRequest, AppProfile) {
        (
            JobRequest {
                id: JobId(id),
                user: "u".into(),
                app_class: "t".into(),
                submit: SimTime::ZERO,
                nodes,
                walltime: SimDuration::from_secs(wall_s),
            },
            AppProfile {
                app_class: "t".into(),
                total_steps: steps,
                mean_step_s: step_s,
                step_cv: 0.0,
                io_every: 0,
                io_mb: 0.0,
                stripe: 1,
                phase_change: None,
                checkpoint_cost_s: 2.0,
                misconfig: None,
                scale: 1.0,
                cores_per_rank: 8,
            },
        )
    }

    #[test]
    fn job_runs_to_completion() {
        let mut w = small_world(1);
        // 10 steps × 5 s = 50 s of work; 100 s walltime.
        w.submit_campaign(vec![quick_job(0, 2, 10, 5.0, 100)]);
        w.run_to_completion(SimTime::from_hours(1));
        assert_eq!(w.metrics.completed, 1);
        assert_eq!(w.metrics.timed_out, 0);
        assert_eq!(w.metrics.steps_completed, 10);
        let j = w.sched.job(JobId(0)).unwrap();
        assert_eq!(j.state, JobState::Completed);
        assert_eq!(j.end, Some(SimTime::from_secs(50)));
        assert_eq!(w.sched.free_nodes(), 8);
    }

    #[test]
    fn underestimated_job_dies_at_limit_and_resubmits() {
        let mut w = small_world(2);
        // 100 steps × 5 s = 500 s of work; only 200 s walltime.
        w.submit_campaign(vec![quick_job(0, 2, 100, 5.0, 200)]);
        w.run_to_completion(SimTime::from_hours(4));
        assert!(w.metrics.timed_out >= 1);
        assert!(w.metrics.resubmits >= 1);
        // Retry padding (×1.5 per attempt) eventually covers the work and
        // the root completes.
        assert_eq!(w.metrics.roots_completed, 1);
        assert_eq!(w.sched.job(JobId(0)).unwrap().state, JobState::TimedOut);
    }

    #[test]
    fn no_resubmit_when_disabled() {
        let mut w = World::new(WorldConfig {
            nodes: 8,
            auto_resubmit: false,
            power_period: None,
            ..WorldConfig::default()
        });
        w.submit_campaign(vec![quick_job(0, 2, 100, 5.0, 200)]);
        w.run_to_completion(SimTime::from_hours(4));
        assert_eq!(w.metrics.timed_out, 1);
        assert_eq!(w.metrics.resubmits, 0);
        assert_eq!(w.metrics.roots_completed, 0);
    }

    #[test]
    fn progress_markers_accumulate() {
        let mut w = small_world(3);
        w.submit_campaign(vec![quick_job(0, 2, 10, 5.0, 100)]);
        w.run_until(SimTime::from_secs(26));
        let markers = w.progress_markers(JobId(0), 100);
        // Markers at start (step 0) plus steps 1..=5 (t = 5, 10, 15, 20, 25).
        assert_eq!(markers.len(), 6);
        assert_eq!(markers.last().unwrap().1, 5.0);
        assert_eq!(w.total_steps(JobId(0)), Some(10));
        // The DES clock sits at the last processed event (the step at
        // t=25), so 75 s of the 100 s allocation remain.
        assert_eq!(
            w.remaining_alloc(JobId(0)),
            Some(SimDuration::from_secs(75))
        );
        // The zero-allocation buffer-reuse path returns the same markers.
        let mut reused = vec![(0.0, 0.0); 3]; // stale content must be cleared
        w.progress_markers_into(JobId(0), 100, &mut reused);
        assert_eq!(reused, markers);
        // Allocation-free progress rate over the same series: 5 steps in
        // 25 s = 0.2 steps/s (deterministic step time, cv = 0).
        let rate = w.progress_rate(JobId(0), 100).unwrap();
        assert!((rate - 0.2).abs() < 1e-9, "rate {rate}");
        // Fewer than two markers (or an unknown job) yields no rate.
        assert_eq!(w.progress_rate(JobId(0), 1), None);
        assert_eq!(w.progress_rate(JobId(999), 100), None);
    }

    #[test]
    fn progress_pyramids_export_incrementally() {
        use moda_telemetry::export::{ExportRecord, MemorySink};
        use moda_telemetry::ReplayStore;
        let mut w = small_world(3);
        // 2000 steps × 5 s: plenty of markers and sealed 1m buckets.
        w.submit_campaign(vec![quick_job(0, 2, 2000, 5.0, 20_000)]);
        w.run_until(SimTime::from_secs(4_000));
        let mut sink = MemorySink::new();
        let s1 = w.export_progress(&mut sink).unwrap();
        assert_eq!(s1.metas, 1, "one marker metric");
        assert!(s1.samples > 0);
        assert!(s1.buckets > 0, "sealed compact-pyramid buckets ship");
        assert!(
            s1.sketch_entries > 0,
            "progress_sketches default ⇒ sketch columns ship"
        );
        // The snapshot is incremental: advancing the world and draining
        // again ships only the new markers/buckets.
        let shipped_before = s1.samples;
        w.run_until(SimTime::from_secs(8_000));
        let s2 = w.export_progress(&mut sink).unwrap();
        assert!(s2.samples > 0 && s2.metas == 0);
        // Replay rebuilds the marker dataset downstream: same metric
        // name, markers in time order, buckets carrying sketches.
        let mut replay = ReplayStore::new();
        for b in &sink.batches {
            replay.apply(b);
        }
        let id = replay.lookup("job.0.steps").expect("marker metric");
        assert_eq!(replay.samples(id).len() as u64, shipped_before + s2.samples);
        assert!(replay
            .samples(id)
            .windows(2)
            .all(|p| p[0].0 <= p[1].0 && p[0].1 <= p[1].1));
        let minute = moda_telemetry::rollup::RES_1M;
        assert!(replay.merged_sketch(id, minute).count() > 0);
        // Only progress metrics leave the node — power telemetry stays.
        assert!(sink
            .records()
            .all(|r| !matches!(r, ExportRecord::Meta { meta, .. } if meta.name.contains("power"))));
    }

    #[test]
    fn wide_progress_reads_come_from_rollups() {
        let mut w = small_world(3);
        // 2000 steps × 5 s = 10 000 s of markers — enough to seal many
        // 1-minute rollup buckets.
        w.submit_campaign(vec![quick_job(0, 2, 2000, 5.0, 20_000)]);
        w.run_until(SimTime::from_secs(9_000));
        let id = JobId(0);
        let hits_before = w.tsdb.rollup_hits();
        // Rollup-served wide rate ≈ the deterministic 0.2 steps/s.
        let wide = w
            .progress_rate_wide(id, SimDuration::from_secs(7_200))
            .unwrap();
        assert!(
            w.tsdb.rollup_hits() > hits_before,
            "wide rate should hit rollups"
        );
        let narrow = w.progress_rate(id, 100).unwrap();
        assert!(
            (wide - narrow).abs() / narrow < 0.05,
            "wide {wide} vs narrow {narrow}"
        );
        // Downsampled marker history: last marker per 10-minute slot,
        // monotone (steps are a counter) and rollup-served.
        let mut hist = Vec::new();
        w.progress_history_into(
            id,
            SimTime::ZERO,
            SimTime::from_secs(9_000),
            SimDuration::from_secs(600),
            &mut hist,
        );
        assert_eq!(hist.len(), 15);
        let vals: Vec<f64> = hist.iter().map(|v| v.expect("dense markers")).collect();
        assert!(
            vals.windows(2).all(|p| p[0] <= p[1]),
            "history must be monotone"
        );
        assert_eq!(*vals.last().unwrap(), 1799.0); // step at t=8995s

        // Wide marker percentile: sketch-served (progress_sketches is on
        // by default) and within the sketch's 1 % bound of the exact
        // selection over the same window. Markers are the counter values
        // 360..=1799 over the trailing 7200 s, so the median sits near
        // the middle of that span.
        let sketch_hits = w.tsdb.sketch_hits();
        let p50 = w
            .progress_percentile_wide(id, SimDuration::from_secs(7_200), 0.5)
            .unwrap();
        assert!(
            w.tsdb.sketch_hits() > sketch_hits,
            "wide marker percentile should be sketch-served"
        );
        let exact = {
            let m = w.tsdb.lookup("job.0.steps").unwrap();
            w.tsdb
                .window_view(m, w.now(), SimDuration::from_secs(7_200))
                .aggregate(WindowAgg::Percentile(0.5))
        };
        assert!(
            (p50 - exact).abs() <= 0.0101 * exact.abs(),
            "sketch p50 {p50} vs exact {exact}"
        );

        // Unknown jobs yield empty/None results, not panics.
        assert_eq!(
            w.progress_rate_wide(JobId(999), SimDuration::from_secs(60)),
            None
        );
        assert_eq!(
            w.progress_percentile_wide(JobId(999), SimDuration::from_secs(60), 0.9),
            None
        );
        let mut empty = vec![Some(1.0)];
        w.progress_history_into(
            JobId(999),
            SimTime::ZERO,
            SimTime::from_secs(60),
            SimDuration::from_secs(60),
            &mut empty,
        );
        assert!(empty.is_empty());
    }

    #[test]
    fn extension_keeps_job_alive() {
        let mut w = small_world(4);
        // 500 s of work, 400 s walltime → doomed without help.
        w.submit_campaign(vec![quick_job(0, 2, 100, 5.0, 400)]);
        w.run_until(SimTime::from_secs(100));
        let d = w.request_extension(JobId(0), SimDuration::from_secs(200));
        assert!(d.is_granted());
        w.run_to_completion(SimTime::from_hours(2));
        assert_eq!(w.metrics.completed, 1);
        assert_eq!(w.metrics.timed_out, 0);
        assert_eq!(w.metrics.resubmits, 0);
    }

    #[test]
    fn checkpoint_resume_preserves_progress() {
        let mut w = small_world(5);
        // 100 × 5 s = 500 s work, 300 s walltime.
        w.submit_campaign(vec![quick_job(0, 2, 100, 5.0, 300)]);
        w.run_until(SimTime::from_secs(250)); // ~50 steps done
        assert!(w.signal_checkpoint(JobId(0)));
        w.run_to_completion(SimTime::from_hours(4));
        assert_eq!(w.metrics.checkpoints, 1);
        assert!(w.metrics.timed_out >= 1);
        // The resubmission resumed: total steps completed across attempts
        // stays ~100 + a re-done tail, far below a full restart's 150+.
        assert_eq!(w.metrics.roots_completed, 1);
        assert!(
            w.metrics.steps_completed < 120,
            "steps {} suggests restart-from-zero",
            w.metrics.steps_completed
        );
    }

    #[test]
    fn maintenance_outage_kills_and_recovery_works() {
        let mut w = small_world(6);
        w.submit_campaign(vec![quick_job(0, 2, 100, 5.0, 600)]);
        // Let the job start, then announce a near-term outage (announced
        // after start: the drain cannot protect an already-running job).
        w.run_until(SimTime::from_secs(50));
        w.add_outage(SimTime::from_secs(100), SimTime::from_secs(200));
        w.run_to_completion(SimTime::from_hours(4));
        assert_eq!(w.metrics.maintenance_killed, 1);
        // Resubmitted after the outage and completed.
        assert_eq!(w.metrics.roots_completed, 1);
    }

    #[test]
    fn preannounced_outage_drains_instead_of_killing() {
        let mut w = small_world(6);
        // Announced before submission: the scheduler refuses to start the
        // job across the window, so nothing is killed — it just waits.
        w.add_outage(SimTime::from_secs(100), SimTime::from_secs(200));
        w.submit_campaign(vec![quick_job(0, 2, 100, 5.0, 600)]);
        w.run_to_completion(SimTime::from_hours(4));
        assert_eq!(w.metrics.maintenance_killed, 0);
        assert_eq!(w.metrics.roots_completed, 1);
        // Started only after the window.
        let start = w.sched.job(JobId(0)).unwrap().start.unwrap();
        assert!(start >= SimTime::from_secs(200));
    }

    #[test]
    fn io_flows_through_pfs_and_qos() {
        let mut w = small_world(7);
        let (req, mut prof) = quick_job(0, 2, 20, 1.0, 600);
        prof.io_every = 5;
        prof.io_mb = 100.0;
        w.register_qos("u", 10.0, 50.0); // tight: 10 MB/s sustained
        w.submit_campaign(vec![(req, prof)]);
        w.run_to_completion(SimTime::from_hours(2));
        assert_eq!(w.metrics.io_writes, 4);
        assert!(w.pfs.total_writes() >= 4);
        let lat = w.io_latency("u").unwrap();
        assert_eq!(lat.count(), 4);
        // QoS throttling forced non-trivial latency on later bursts.
        assert!(lat.max().unwrap() > 1000.0, "max {:?} ms", lat.max());
    }

    #[test]
    fn reopen_avoiding_moves_stripe() {
        let mut w = small_world(8);
        let (req, mut prof) = quick_job(0, 2, 50, 2.0, 600);
        prof.io_every = 5;
        prof.io_mb = 10.0;
        prof.stripe = 1;
        w.submit_campaign(vec![(req, prof)]);
        w.run_until(SimTime::from_secs(30));
        assert!(w.reopen_avoiding(JobId(0), vec![OstId(0)]));
        w.run_until(SimTime::from_secs(120));
        // New writes avoid ost0: its observed bandwidth stops updating
        // while another target starts serving.
        let served_elsewhere =
            (1..w.pfs.num_osts() as u32).any(|i| w.observed_ost_bw(OstId(i)).is_some());
        assert!(served_elsewhere);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut w = small_world(seed);
            let jobs = generate(
                &WorkloadConfig {
                    n_jobs: 30,
                    mean_interarrival_s: 60.0,
                    ..WorkloadConfig::default()
                },
                &RngStreams::new(seed),
                0,
            );
            w.submit_campaign(jobs);
            w.run_to_completion(SimTime::from_hours(48));
            (
                w.metrics.completed,
                w.metrics.timed_out,
                w.metrics.steps_completed,
                w.now(),
            )
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn campaign_with_mixed_outcomes_accounts_roots() {
        let mut w = small_world(9);
        let jobs = generate(
            &WorkloadConfig {
                n_jobs: 40,
                mean_interarrival_s: 30.0,
                ..WorkloadConfig::default()
            },
            &RngStreams::new(99),
            0,
        );
        w.submit_campaign(jobs);
        w.run_to_completion(SimTime::from_hours(96));
        assert_eq!(w.metrics.roots_total, 40);
        // With auto-resubmit and walltime padding, all roots finish.
        assert_eq!(w.metrics.roots_completed, 40);
        // But a meaningful number of first attempts died (the 20%
        // underestimate fraction).
        assert!(w.metrics.timed_out > 0);
        assert_eq!(w.metrics.resubmits as i64, w.metrics.timed_out as i64);
    }

    #[test]
    fn power_telemetry_lands_in_all_domains() {
        let mut w = World::new(WorldConfig {
            nodes: 4,
            power_period: Some(SimDuration::from_secs(10)),
            ..WorldConfig::default()
        });
        w.submit_campaign(vec![quick_job(0, 2, 30, 5.0, 600)]);
        w.run_to_completion(SimTime::from_hours(1));
        let node = w.tsdb.lookup("node.0.power_w").expect("node sensor");
        let fac = w.tsdb.lookup("facility.power_kw").expect("facility meter");
        let q = w.tsdb.lookup("sched.queue_len").expect("queue gauge");
        assert!(w.tsdb.series(node).len() > 3);
        assert!(w.tsdb.series(fac).len() > 3);
        assert!(w.tsdb.series(q).len() > 3);
        assert_eq!(w.tsdb.meta(fac).domain, SourceDomain::Facility);
    }

    #[test]
    fn power_cap_scales_reported_draw() {
        let run = |cap: Option<f64>| {
            let mut w = World::new(WorldConfig {
                nodes: 4,
                power_period: Some(SimDuration::from_secs(10)),
                ..WorldConfig::default()
            });
            w.submit_campaign(vec![quick_job(0, 4, 60, 5.0, 600)]);
            w.set_power_cap_kw(cap);
            w.run_to_completion(SimTime::from_hours(1));
            let span = SimDuration::from_hours(1);
            let fac = w.tsdb.lookup("facility.power_kw").unwrap();
            let node = w.tsdb.lookup("node.0.power_w").unwrap();
            (
                w.tsdb
                    .window_agg(fac, w.now(), span, WindowAgg::Max)
                    .unwrap(),
                w.tsdb
                    .window_agg(node, w.now(), span, WindowAgg::Max)
                    .unwrap(),
            )
        };
        let (uncapped, uncapped_node) = run(None);
        assert!(uncapped > 0.0);
        let cap = uncapped * 0.6;
        let (capped, capped_node) = run(Some(cap));
        // The facility meter never reports above the cap, and node
        // sensors scale down with it (same seed, same RNG draws).
        assert!(capped <= cap + 1e-9, "capped {capped} vs cap {cap}");
        assert!(
            capped_node < uncapped_node * 0.8,
            "node sensor {capped_node} vs uncapped {uncapped_node}"
        );
        // Uncapping restores the raw draw.
        let mut w = World::new(WorldConfig {
            nodes: 4,
            power_period: Some(SimDuration::from_secs(10)),
            ..WorldConfig::default()
        });
        w.set_power_cap_kw(Some(cap));
        assert_eq!(w.power_cap_kw(), Some(cap));
        w.set_power_cap_kw(None);
        assert_eq!(w.power_cap_kw(), None);
    }

    #[test]
    fn runtime_failure_injection_arms_and_disarms() {
        let mut w = small_world(12);
        // 200 × 5 s = 1000 s of work with checkpoints available.
        w.submit_campaign(vec![quick_job(0, 2, 200, 5.0, 4000)]);
        w.run_until(SimTime::from_secs(10));
        assert_eq!(w.metrics.failures, 0);
        // Aggressive failures switched on mid-campaign (system MTBF
        // 100 s/8 nodes = 12.5 s): kills arrive almost immediately.
        w.set_failure(Some(FailureConfig { node_mtbf_s: 100.0 }));
        w.run_until(SimTime::from_secs(400));
        assert!(w.metrics.failures > 0, "no failures injected");
        let seen = w.metrics.failures;
        // Repair: disabling the process stops the bleeding for good.
        w.set_failure(None);
        w.run_to_completion(SimTime::from_hours(12));
        assert_eq!(w.metrics.failures, seen);
        assert_eq!(w.metrics.roots_completed, 1);
    }

    #[test]
    fn misconfig_correction_speeds_job() {
        use crate::app::MisconfigSpec;
        let mk = |seed| {
            let mut w = small_world(seed);
            let (req, mut prof) = quick_job(0, 2, 100, 2.0, 2000);
            prof.misconfig = Some(MisconfigSpec {
                slowdown: 3.0,
                threads_per_rank: 32,
                gpus_allocated: 0,
                gpu_util: 0.0,
                lib_path_ok: true,
            });
            w.submit_campaign(vec![(req, prof)]);
            w
        };
        // Uncorrected: 100 × 6 s = 600 s.
        let mut plain = mk(10);
        plain.run_to_completion(SimTime::from_hours(2));
        let t_plain = plain.sched.job(JobId(0)).unwrap().end.unwrap();
        // Corrected at t=60: remaining steps run at 2 s.
        let mut fixed = mk(10);
        fixed.run_until(SimTime::from_secs(60));
        let snap = fixed.config_snapshot(JobId(0)).unwrap();
        assert!(snap.threads_per_rank > snap.cores_per_rank);
        assert!(fixed.correct_misconfig(JobId(0)));
        fixed.run_to_completion(SimTime::from_hours(2));
        let t_fixed = fixed.sched.job(JobId(0)).unwrap().end.unwrap();
        assert!(t_fixed < t_plain, "{t_fixed} !< {t_plain}");
        assert_eq!(fixed.metrics.corrections, 1);
    }

    #[test]
    fn ground_truth_remaining_shrinks() {
        let mut w = small_world(11);
        w.submit_campaign(vec![quick_job(0, 2, 100, 5.0, 1000)]);
        w.run_until(SimTime::from_secs(1));
        let full = w.ground_truth_remaining_s(JobId(0)).unwrap();
        assert!((full - 495.0).abs() < 10.0);
        w.run_until(SimTime::from_secs(250));
        let half = w.ground_truth_remaining_s(JobId(0)).unwrap();
        assert!(half < full / 1.8);
    }
}
