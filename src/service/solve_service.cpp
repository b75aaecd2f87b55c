#include "service/solve_service.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"
#include "parallel/batch.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace gvc::service {

const char* steal_tiers_name(StealTiers t) {
  switch (t) {
    case StealTiers::kNone:         return "none";
    case StealTiers::kJobs:         return "jobs";
    case StealTiers::kJobsAndNodes: return "jobs+nodes";
  }
  return "?";
}

std::optional<StealTiers> try_parse_steal_tiers(const std::string& name) {
  std::string n = util::to_lower(name);
  if (n == "none" || n == "off") return StealTiers::kNone;
  if (n == "jobs") return StealTiers::kJobs;
  if (n == "jobs+nodes" || n == "jobs-and-nodes" || n == "nodes")
    return StealTiers::kJobsAndNodes;
  return std::nullopt;
}

std::vector<device::DeviceSpec> SolveService::partition_device(
    const device::DeviceSpec& device, int workers) {
  GVC_CHECK(workers >= 1);
  std::vector<device::DeviceSpec> slices;
  slices.reserve(static_cast<std::size_t>(workers));
  const int base_sms = std::max(1, device.num_sms / workers);
  int remainder =
      device.num_sms > workers ? device.num_sms - base_sms * workers : 0;
  for (int w = 0; w < workers; ++w) {
    device::DeviceSpec s = device;
    s.num_sms = base_sms + (remainder > 0 ? 1 : 0);
    if (remainder > 0) --remainder;
    // Global memory is space-shared like the SMs; shared memory is per-SM
    // and per-block, so those limits carry over unchanged.
    s.global_mem_bytes =
        std::max<std::int64_t>(device.global_mem_bytes / workers, 1 << 20);
    s.shared_mem_per_sm_bytes = device.shared_mem_per_sm_bytes;
    s.name = util::format("%s/slice%d", device.name.c_str(), w);
    s.validate();
    slices.push_back(std::move(s));
  }
  return slices;
}

parallel::ParallelResult dropped_result(vc::Outcome cause) {
  parallel::ParallelResult r;
  r.outcome = cause;
  r.best_size = -1;
  return r;
}

bool JobTicket::cancel() const {
  return state != nullptr &&
         state->cancel(dropped_result(vc::Outcome::kCancelled));
}

SolveService::SolveService(ServiceOptions options)
    : options_(std::move(options)),
      phase_table_(std::max(1, options_.num_workers)) {
  options_.num_workers = std::max(1, options_.num_workers);
  options_.num_devices =
      std::min(std::max(1, options_.num_devices), options_.num_workers);
  options_.steal_poll_seconds = std::max(1e-4, options_.steal_poll_seconds);
  options_.corpus_chunk_size =
      std::max<std::size_t>(1, options_.corpus_chunk_size);

  obs::Registry& reg = obs::Registry::global();
  submitted_ = reg.counter("gvc_service_jobs_submitted_total",
                           "jobs submitted (incl. hits/coalesced/rejects)");
  completed_ = reg.counter("gvc_service_jobs_completed_total",
                           "jobs solved by a worker");
  cache_hits_ = reg.counter("gvc_service_cache_hits_total",
                            "submissions served from a completed entry");
  coalesced_ = reg.counter("gvc_service_jobs_coalesced_total",
                           "submissions attached to an in-flight job");
  rejected_ = reg.counter("gvc_service_jobs_rejected_total",
                          "submissions refused at admission");
  expired_ = reg.counter("gvc_service_jobs_expired_total",
                         "jobs whose deadline fired");
  cancelled_ = reg.counter("gvc_service_jobs_cancelled_total",
                           "jobs cancelled (queued or mid-solve)");
  corpus_batches_ = reg.counter("gvc_corpus_batches_total",
                                "corpus chunk jobs admitted");
  corpus_graphs_submitted_ =
      reg.counter("gvc_corpus_graphs_submitted_total",
                  "well-formed corpus graphs admitted");
  corpus_graphs_solved_ = reg.counter("gvc_corpus_graphs_solved_total",
                                      "per-graph batch records delivered");
  corpus_graphs_skipped_ =
      reg.counter("gvc_corpus_graphs_skipped_total",
                  "malformed corpus records skipped by the reader");
  queue_wait_hist_ =
      reg.histogram("gvc_service_queue_wait_seconds",
                    "submission -> dequeue (or queued drop) wall time");
  solve_hist_ = reg.histogram("gvc_service_solve_seconds",
                              "worker solve wall time");
  e2e_hist_ = reg.histogram("gvc_service_e2e_seconds",
                            "true submit -> terminal wall time");
  steal_jobs_ = reg.counter(
      "gvc_steal_jobs_total",
      "tier-1 steals: queued jobs taken from a sibling shard");
  steal_nodes_ = reg.counter(
      "gvc_steal_nodes_total",
      "tier-2 steals: migrated subtree nodes executed by a worker");
  migrate_run_hist_ =
      reg.histogram("gvc_steal_migration_run_seconds",
                    "wall time of one migrated-node run on the thief");

  cache_ = options_.cache
               ? options_.cache
               : std::make_shared<ResultCache>(options_.cache_capacity,
                                               options_.min_cache_seconds);

  // Topology. One device: workers slice the machine directly — the exact
  // pre-sharding layout (slice names included, so cache keys and test
  // expectations carry over). Multiple devices: the machine is carved into
  // device slices first, each device slice is carved across its workers
  // with the SAME partition rule, and workers map to devices contiguously
  // (the first W % D devices take the extra worker).
  const int num_workers = options_.num_workers;
  const int num_devices = options_.num_devices;
  worker_device_.assign(static_cast<std::size_t>(num_workers), 0);
  device_workers_.assign(static_cast<std::size_t>(num_devices), {});
  if (num_devices == 1) {
    device_slices_ = {options_.device};
    worker_devices_ = partition_device(options_.device, num_workers);
    for (int w = 0; w < num_workers; ++w) device_workers_[0].push_back(w);
  } else {
    device_slices_ = partition_device(options_.device, num_devices);
    worker_devices_.reserve(static_cast<std::size_t>(num_workers));
    const int base = num_workers / num_devices;
    const int extra = num_workers % num_devices;
    int w = 0;
    for (int d = 0; d < num_devices; ++d) {
      const int wpd = base + (d < extra ? 1 : 0);
      std::vector<device::DeviceSpec> slices =
          partition_device(device_slices_[static_cast<std::size_t>(d)], wpd);
      for (int j = 0; j < wpd; ++j, ++w) {
        worker_device_[static_cast<std::size_t>(w)] = d;
        device_workers_[static_cast<std::size_t>(d)].push_back(w);
        worker_devices_.push_back(std::move(slices[static_cast<std::size_t>(j)]));
      }
    }
  }
  // Tier 2 needs at least two devices (imports are cross-device only).
  if (options_.steal_tiers == StealTiers::kJobsAndNodes && num_devices > 1)
    broker_ = std::make_unique<worklist::DeviceBroker>(
        num_devices, options_.broker_capacity);

  queues_.reserve(static_cast<std::size_t>(options_.num_workers));
  jobs_per_worker_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int w = 0; w < options_.num_workers; ++w) {
    queues_.push_back(std::make_unique<JobQueue>(options_.queue_capacity,
                                                 options_.full_policy));
    jobs_per_worker_.push_back(
        std::make_unique<std::atomic<std::uint64_t>>(0));
  }
  workers_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int w = 0; w < options_.num_workers; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

SolveService::~SolveService() { shutdown(); }

void SolveService::shutdown() {
  // Serialized: concurrent shutdown() calls (or shutdown() racing the
  // destructor) must not both reach join() on the same thread object.
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  if (!shutdown_.exchange(true))
    for (auto& q : queues_) q->close();
  for (auto& t : workers_)
    if (t.joinable()) t.join();
}

int SolveService::shard_of(const CacheKey& key) const {
  return home_shard(key, static_cast<int>(queues_.size()));
}

JobTicket SolveService::submit(JobSpec spec) {
  GVC_CHECK_MSG(spec.graph != nullptr, "JobSpec.graph must be set");
  submitted_->add();

  // Route on the submitted request, then pin the executed device: the
  // shard choice is deterministic in the submitted config, so identical
  // submissions land on the same worker and get the same slice. The cache
  // key is computed AFTER the device pin — entries must describe the
  // config that actually ran, or a cache sharer with a different worker
  // layout would be served records produced under a device its key never
  // encoded.
  CacheKey key;
  key.graph_hash = canonical_graph_hash(*spec.graph);
  key.num_vertices = spec.graph->num_vertices();
  key.num_edges = spec.graph->num_edges();
  key.config_hash = solve_config_hash(spec.method, spec.config);
  const int shard = shard_of(key);
  if (options_.partition_device) {
    spec.config.device = worker_devices_[static_cast<std::size_t>(shard)];
    key.config_hash = solve_config_hash(spec.method, spec.config);
  }
  auto state = std::make_shared<JobState>(
      next_job_id_.fetch_add(1, std::memory_order_relaxed), std::move(spec),
      key);
  obs::trace_instant(obs::TraceCat::kService, "job_submit", "job",
                     static_cast<std::int64_t>(state->id()));

  if (shutdown_.load(std::memory_order_acquire)) {
    rejected_->add();
    state->finish(JobStatus::kRejected,
                  dropped_result(vc::Outcome::kCancelled), 0.0, 0.0);
    observe_latency(state->e2e_seconds(), 0.0, 0.0,
                    /*queued=*/false, /*solved=*/false);
    return JobTicket{std::move(state)};
  }

  parallel::ParallelResult cached;
  std::shared_ptr<JobState> owner;
  switch (cache_->acquire(key, state, &cached, &owner)) {
    case ResultCache::Outcome::kHit: {
      cache_hits_->add();
      state->finish(JobStatus::kDone, std::move(cached), 0.0, 0.0);
      observe_latency(state->e2e_seconds(), 0.0, 0.0,
                      /*queued=*/false, /*solved=*/false);
      JobTicket t{std::move(state)};
      t.cache_hit = true;
      return t;
    }
    case ResultCache::Outcome::kInflight: {
      coalesced_->add();
      JobTicket t{std::move(owner)};
      t.coalesced = true;
      return t;
    }
    case ResultCache::Outcome::kMiss:
    case ResultCache::Outcome::kBypass:
      // kBypass: an identical key is in flight under different budgets —
      // this job runs its own solve. It holds no registration; the
      // owner-guarded abandon/complete calls below are no-ops for it.
      break;
  }

  const double deadline_abs =
      state->spec().deadline_s > 0.0
          ? state->submit_time_s() + state->spec().deadline_s
          : 0.0;
  const JobQueue::PushOutcome outcome =
      queues_[static_cast<std::size_t>(shard)]->push(state, deadline_abs);
  if (outcome != JobQueue::PushOutcome::kAccepted) {
    cache_->abandon(key, state.get());
    if (outcome == JobQueue::PushOutcome::kRejectedExpired) {
      expired_->add();
      state->finish(JobStatus::kExpired,
                    dropped_result(vc::Outcome::kDeadline), 0.0, 0.0);
    } else {
      rejected_->add();
      state->finish(JobStatus::kRejected,
                    dropped_result(vc::Outcome::kCancelled), 0.0, 0.0);
    }
    observe_latency(state->e2e_seconds(), 0.0, 0.0,
                    /*queued=*/false, /*solved=*/false);
  }
  return JobTicket{std::move(state)};
}

std::vector<JobTicket> SolveService::submit_all(std::vector<JobSpec> specs) {
  std::vector<JobTicket> tickets;
  tickets.reserve(specs.size());
  for (auto& spec : specs) tickets.push_back(submit(std::move(spec)));
  return tickets;
}

JobTicket SolveService::submit_batch_job(JobSpec spec) {
  GVC_CHECK_MSG(spec.batch && !spec.batch->empty(),
                "batch job without records");
  submitted_->add();
  corpus_batches_->add();
  corpus_graphs_submitted_->add(spec.batch->size());

  // Batch jobs don't go through the ResultCache (a corpus of one-off small
  // instances would only churn it), so there is no content key to pin a
  // shard with: spread chunks round-robin instead. The executed device is
  // still the target worker's slice.
  const int shard = static_cast<int>(
      next_batch_shard_.fetch_add(1, std::memory_order_relaxed) %
      static_cast<std::uint64_t>(queues_.size()));
  if (options_.partition_device)
    spec.config.device = worker_devices_[static_cast<std::size_t>(shard)];
  auto state = std::make_shared<JobState>(
      next_job_id_.fetch_add(1, std::memory_order_relaxed), std::move(spec),
      CacheKey{});
  obs::trace_instant(obs::TraceCat::kService, "batch_submit", "job",
                     static_cast<std::int64_t>(state->id()));

  if (shutdown_.load(std::memory_order_acquire)) {
    rejected_->add();
    state->finish(JobStatus::kRejected,
                  dropped_result(vc::Outcome::kCancelled), 0.0, 0.0);
    observe_latency(state->e2e_seconds(), 0.0, 0.0,
                    /*queued=*/false, /*solved=*/false);
    return JobTicket{std::move(state)};
  }

  const double deadline_abs =
      state->spec().deadline_s > 0.0
          ? state->submit_time_s() + state->spec().deadline_s
          : 0.0;
  const JobQueue::PushOutcome outcome =
      queues_[static_cast<std::size_t>(shard)]->push(state, deadline_abs);
  if (outcome != JobQueue::PushOutcome::kAccepted) {
    if (outcome == JobQueue::PushOutcome::kRejectedExpired) {
      expired_->add();
      state->finish(JobStatus::kExpired,
                    dropped_result(vc::Outcome::kDeadline), 0.0, 0.0);
    } else {
      rejected_->add();
      state->finish(JobStatus::kRejected,
                    dropped_result(vc::Outcome::kCancelled), 0.0, 0.0);
    }
    observe_latency(state->e2e_seconds(), 0.0, 0.0,
                    /*queued=*/false, /*solved=*/false);
  }
  return JobTicket{std::move(state)};
}

CorpusSubmission SolveService::submit_batch(graph::CorpusReader& stream,
                                            const CorpusOptions& options) {
  CorpusSubmission submission;
  const std::size_t chunk_size = options_.corpus_chunk_size;
  const std::size_t skips_before = stream.skips().size();

  auto flush = [&](std::vector<graph::CorpusRecord> chunk) {
    JobSpec spec;
    spec.config = options.config;
    spec.limits = options.limits;
    spec.priority = options.priority;
    spec.deadline_s = options.deadline_s;
    spec.batch = std::make_shared<const std::vector<graph::CorpusRecord>>(
        std::move(chunk));
    submission.graphs_submitted +=
        static_cast<long long>(spec.batch->size());
    submission.tickets.push_back(submit_batch_job(std::move(spec)));
  };

  std::vector<graph::CorpusRecord> chunk;
  chunk.reserve(chunk_size);
  while (auto rec = stream.next()) {
    chunk.push_back(std::move(*rec));
    if (chunk.size() >= chunk_size) {
      // submit_batch_job blocks on a full shard under kBlock — that
      // backpressure is what paces the stream read.
      flush(std::move(chunk));
      chunk = {};
      chunk.reserve(chunk_size);
    }
  }
  if (!chunk.empty()) flush(std::move(chunk));

  // Everything the reader skipped while we drained it is this
  // submission's skip set (the reader accumulates across its lifetime,
  // so only count from where this call started).
  submission.skips.assign(stream.skips().begin() +
                              static_cast<std::ptrdiff_t>(skips_before),
                          stream.skips().end());
  corpus_graphs_skipped_->add(submission.skips.size());
  return submission;
}

const parallel::ParallelResult& SolveService::wait(
    const JobTicket& ticket) const {
  GVC_CHECK_MSG(ticket.valid(), "wait() on an invalid ticket");
  ticket.state->wait();
  return ticket.state->result();
}

const parallel::ParallelResult* SolveService::try_poll(
    const JobTicket& ticket) const {
  GVC_CHECK_MSG(ticket.valid(), "try_poll() on an invalid ticket");
  return ticket.state->try_poll();
}

void SolveService::observe_latency(double e2e_s, double queue_s,
                                   double solve_s, bool queued, bool solved) {
  e2e_hist_->observe_seconds(e2e_s);
  if (queued) queue_wait_hist_->observe_seconds(queue_s);
  if (solved) solve_hist_->observe_seconds(solve_s);
}

void SolveService::worker_loop(int w) {
  obs::set_thread_label(util::format("svc-worker-%d", w));

  // The worker's cross-job solver scratch: reduce workspaces and worklist
  // slots stay warm from one job to the next, trimmed after each job to a
  // pool bound that covers every resident-grid size this substrate plans
  // (so a one-off huge StackOnly grid doesn't pin 2^start_depth |V|-sized
  // buffers) and to a slot byte bound (so one huge-graph Hybrid job doesn't
  // pin threshold x |V| bytes of queued nodes). The slot bound is the
  // measured peak of the benchmark's largest Hybrid job rounded up: a
  // p_hat_500_3 (default scale) solve fills the queue to its threshold,
  // 2,050 nodes, and leaves 1.8 MB of slot buffers; a wire-tiny job
  // leaves about 13 KB.
  constexpr int kRetainedWorkspaceBlocks = 64;
  constexpr std::size_t kRetainedWorklistSlotBytes = std::size_t{2} << 20;
  parallel::SolveWorkspace workspace;
  JobQueue& queue = *queues_[static_cast<std::size_t>(w)];
  const bool stealing = options_.steal_tiers != StealTiers::kNone;

  for (;;) {
    std::shared_ptr<JobState> job;
    if (stealing) {
      job = acquire_job_stealing(w, workspace);
    } else {
      // No stealing: the original blocking per-shard pop, untouched.
      const double idle_from_s = service_now_s();
      job = queue.pop();
      phase_table_.add(w, obs::Phase::kIdle,
                       static_cast<std::uint64_t>(
                           (service_now_s() - idle_from_s) * 1e9));
    }
    if (!job) return;  // closed and drained

    const double dequeued_s = service_now_s();
    const double queue_seconds = dequeued_s - job->submit_time_s();
    const JobSpec& spec = job->spec();
    obs::trace_instant(obs::TraceCat::kService, "job_dequeue", "job",
                       static_cast<std::int64_t>(job->id()));

    const double deadline_abs =
        spec.deadline_s > 0.0 ? job->submit_time_s() + spec.deadline_s : 0.0;
    if (deadline_abs > 0.0 && dequeued_s >= deadline_abs) {
      if (!spec.is_batch()) cache_->abandon(job->key(), job.get());
      expired_->add();
      obs::trace_instant(obs::TraceCat::kService, "job_expired", "job",
                         static_cast<std::int64_t>(job->id()));
      observe_latency(service_now_s() - job->submit_time_s(), queue_seconds,
                      0.0, /*queued=*/true, /*solved=*/false);
      job->finish(JobStatus::kExpired, dropped_result(vc::Outcome::kDeadline),
                  queue_seconds, 0.0);
      continue;
    }
    // Propagate the queue deadline into the solve BEFORE start(): a job
    // that dequeues in time may no longer run arbitrarily past its
    // deadline — the control stops it mid-flight with Outcome::kDeadline.
    vc::SolveControl& control = *job->control();
    control.set_deadline(deadline_abs);
    // A traced run keeps its reduce/branch phase split: the solve then pays
    // for the per-node Fig. 6 profile. Untraced jobs run without it.
    if (obs::tracing()) control.enable_activity_profile();
    if (!job->start()) {
      // Terminal before it ran — cancelled while queued, or rejected
      // during shutdown. Release the in-flight cache registration (unless
      // an identical later submission already adopted it) so the next
      // identical submission re-solves, and account the cancellation here:
      // the canceller flipped the status but cannot reach the counters.
      // The canceller already stamped the e2e time (cancel() turned the
      // state terminal before this dequeue), so the latency is observed
      // here — once, from the stamped values. Like the cancelled_ count,
      // the samples land when the worker drains the entry; a stats() read
      // racing the drain may not see them yet (shutdown() makes it final).
      if (!spec.is_batch()) cache_->abandon(job->key(), job.get());
      if (job->status() == JobStatus::kCancelled) {
        cancelled_->add();
        observe_latency(job->e2e_seconds(), job->queue_seconds(), 0.0,
                        /*queued=*/true, /*solved=*/false);
      }
      continue;
    }

    // The executed device was already pinned into spec.config at submit
    // (so the cache key describes exactly this run).
    parallel::ParallelResult result;
    if (spec.is_batch()) {
      obs::TraceSpan span(obs::TraceCat::kService, "batch_solve", "job",
                          static_cast<std::int64_t>(job->id()));
      std::vector<const graph::CsrGraph*> graphs;
      graphs.reserve(spec.batch->size());
      for (const auto& rec : *spec.batch) graphs.push_back(&rec.graph);
      parallel::BatchResult batch =
          parallel::solve_batch(graphs, spec.config, &control, &workspace);
      // The ticket-level record is the chunk aggregate: the first
      // non-complete outcome (external stops first, so a cancelled chunk
      // reads kCancelled), node/time totals, and the launch stats. The
      // per-graph records are published on the JobState before finish()
      // turns it terminal.
      result.outcome = vc::Outcome::kOptimal;
      for (const auto& r : batch.results) {
        if (r.outcome == vc::Outcome::kCancelled ||
            r.outcome == vc::Outcome::kDeadline) {
          result.outcome = r.outcome;
          break;
        }
        if (!r.complete() && result.outcome == vc::Outcome::kOptimal)
          result.outcome = r.outcome;
      }
      result.tree_nodes = batch.total_tree_nodes();
      result.seconds = batch.wall_seconds;
      result.sim_seconds = batch.sim_seconds;
      result.plan = batch.plan;
      result.launch = std::move(batch.launch);
      corpus_graphs_solved_->add(batch.results.size());
      job->set_batch_results(std::move(batch.results));
    } else {
      obs::TraceSpan span(obs::TraceCat::kService, "job_solve", "job",
                          static_cast<std::int64_t>(job->id()));
      // Tier 2: with a broker, the solve may divert branch children to a
      // starved remote device (and settles them before harvesting).
      parallel::StealEnv steal_env{broker_.get(), device_of_worker(w)};
      result = parallel::solve(*spec.graph, spec.method, spec.config,
                               &control, &workspace,
                               broker_ ? &steal_env : nullptr);
    }
    const double solve_seconds = service_now_s() - dequeued_s;

    // Fold the solve's own activity profile into this worker's phase
    // split. The blocks ran on the launch's simulated-SM threads, so this
    // is CPU work attributed to the worker that drove the launch. Without
    // the per-node profile a launch reports its worklist timers plus the
    // untimed residual, which folds into kOther; solvers that report no
    // block activity — Sequential's direct path, and batch launches whose
    // blocks are Sequential engines — book their wall time as kOther so the
    // table still accounts every solve.
    if (result.launch.blocks.empty() ||
        result.launch.merged_activities().total_ns() == 0) {
      phase_table_.add(w, obs::Phase::kOther,
                       static_cast<std::uint64_t>(solve_seconds * 1e9));
    } else {
      phase_table_.add_activities(w, result.launch.merged_activities());
    }

    // Cache admission is the ResultCache's policy now (see complete()):
    // incomplete records — limit hits, kDeadline, kCancelled — are refused
    // (load-dependent, not canonical), as are sub-min_cache_seconds
    // solves; a refusal drops this job's in-flight registration so the
    // next identical submission re-solves. Already-coalesced tickets
    // still get this result through the shared JobState. Batch jobs hold
    // no registration and store nothing.
    if (!spec.is_batch()) {
      const double cache_from_s = service_now_s();
      cache_->complete(job->key(), result, job.get());
      phase_table_.add(w, obs::Phase::kCache,
                       static_cast<std::uint64_t>(
                           (service_now_s() - cache_from_s) * 1e9));
    }
    workspace.trim(kRetainedWorkspaceBlocks, kRetainedWorklistSlotBytes);
    jobs_per_worker_[static_cast<std::size_t>(w)]->fetch_add(
        1, std::memory_order_relaxed);

    // Status taxonomy: external stops keep their own terminal status (and
    // their own counters — cancellations are not expiries); everything
    // else, complete or limit-hit, is a normally-delivered result.
    JobStatus status = JobStatus::kDone;
    if (result.outcome == vc::Outcome::kCancelled) {
      status = JobStatus::kCancelled;
      cancelled_->add();
    } else if (result.outcome == vc::Outcome::kDeadline) {
      status = JobStatus::kExpired;
      expired_->add();
    } else {
      completed_->add();
    }
    obs::trace_instant(obs::TraceCat::kService, job_status_name(status),
                       "job", static_cast<std::int64_t>(job->id()));
    observe_latency(service_now_s() - job->submit_time_s(), queue_seconds,
                    solve_seconds, /*queued=*/true, /*solved=*/true);
    job->finish(status, std::move(result), queue_seconds, solve_seconds);
  }
}

std::shared_ptr<JobState> SolveService::acquire_job_stealing(
    int w, parallel::SolveWorkspace& workspace) {
  JobQueue& own = *queues_[static_cast<std::size_t>(w)];
  const int dev = worker_device_[static_cast<std::size_t>(w)];
  const std::vector<int>& siblings =
      device_workers_[static_cast<std::size_t>(dev)];

  // Everything here is waiting (kIdle) except migrated-node runs (kSteal).
  double idle_from_s = service_now_s();
  auto book_idle = [&] {
    const double now = service_now_s();
    phase_table_.add(w, obs::Phase::kIdle,
                     static_cast<std::uint64_t>((now - idle_from_s) * 1e9));
    idle_from_s = now;
  };

  for (;;) {
    // Own shard outranks everything (keeps the key->shard affinity warm).
    if (std::shared_ptr<JobState> job = own.try_pop()) {
      book_idle();
      return job;
    }

    // Tier 1: drain a sibling shard on this device. The stolen job runs
    // the config it was pinned at admission — its cache key already
    // describes that slice, so executing it here changes nothing the key
    // encodes.
    for (int s : siblings) {
      if (s == w) continue;
      if (std::shared_ptr<JobState> job =
              queues_[static_cast<std::size_t>(s)]->try_pop()) {
        steal_jobs_->add();
        obs::trace_instant(obs::TraceCat::kService, "job_steal", "from",
                           static_cast<std::int64_t>(s));
        book_idle();
        return job;
      }
    }

    // Tier 2: run ONE migrated subtree node from a solve on another
    // device, then rescan the queues — whole jobs outrank more imports.
    if (broker_) {
      worklist::DeviceBroker::Import im;
      if (broker_->try_import(dev, im)) {
        book_idle();
        const double run_from_s = service_now_s();
        workspace.prepare(1);
        {
          obs::TraceSpan span(obs::TraceCat::kService, "migrated_node_run",
                              "from", static_cast<std::int64_t>(
                                          im.source_device()));
          im.run(workspace.block(0));
        }
        const double run_s = service_now_s() - run_from_s;
        steal_nodes_->add();
        migrate_run_hist_->observe_seconds(run_s);
        phase_table_.add(w, obs::Phase::kSteal,
                         static_cast<std::uint64_t>(run_s * 1e9));
        idle_from_s = service_now_s();
        continue;
      }
    }

    // Nothing anywhere: bounded sleep on the own shard, registered hungry
    // so solves on other devices see this device's demand meanwhile.
    if (broker_) broker_->enter_hungry(dev);
    bool closed = false;
    std::shared_ptr<JobState> job =
        own.pop_for(options_.steal_poll_seconds, &closed);
    if (broker_) broker_->leave_hungry(dev);
    if (job) {
      book_idle();
      return job;
    }
    if (closed) {
      // Own shard closed AND empty (pop_for would have returned a job
      // otherwise): exit. Sibling leftovers belong to their own workers,
      // which only exit once their shard is drained too.
      book_idle();
      return nullptr;
    }
  }
}

ServiceStats SolveService::stats() const {
  ServiceStats s;
  s.submitted = submitted_->value();
  s.completed = completed_->value();
  s.cache_hits = cache_hits_->value();
  s.coalesced = coalesced_->value();
  s.rejected = rejected_->value();
  s.expired = expired_->value();
  s.cancelled = cancelled_->value();
  s.corpus_batches = corpus_batches_->value();
  s.corpus_graphs_submitted = corpus_graphs_submitted_->value();
  s.corpus_graphs_solved = corpus_graphs_solved_->value();
  s.corpus_graphs_skipped = corpus_graphs_skipped_->value();
  s.steal_jobs = steal_jobs_->value();
  s.steal_nodes = steal_nodes_->value();
  if (broker_) s.broker = broker_->stats();
  s.cache = cache_->stats();
  s.queues.reserve(queues_.size());
  for (const auto& q : queues_) s.queues.push_back(q->stats());
  s.jobs_per_worker.reserve(jobs_per_worker_.size());
  for (const auto& c : jobs_per_worker_)
    s.jobs_per_worker.push_back(c->load(std::memory_order_relaxed));
  s.queue_wait = queue_wait_hist_->snapshot();
  s.solve_latency = solve_hist_->snapshot();
  s.e2e_latency = e2e_hist_->snapshot();
  s.worker_phases.reserve(static_cast<std::size_t>(phase_table_.slots()));
  for (int w = 0; w < phase_table_.slots(); ++w)
    s.worker_phases.push_back(phase_table_.snapshot(w));
  return s;
}

const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::kQueued:   return "queued";
    case JobStatus::kRunning:  return "running";
    case JobStatus::kDone:      return "done";
    case JobStatus::kExpired:   return "expired";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kRejected:  return "rejected";
  }
  return "?";
}

}  // namespace gvc::service
