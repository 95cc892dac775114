// Per-layer probes of the traced run. Each probe calls one module's public
// functions on this workload's own inputs, inside a span, and reports the
// span's time beside the work the call did (an analytic count).
//
// The probes see the layers from outside: they cannot see folds inside the
// calendar queue, the deal inside the supervisor's Runner, or WAL staging.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "platform/registry.hpp"
#include "platform/scheduler.hpp"
#include "rng/bulk.hpp"
#include "rng/distributions.hpp"
#include "rng/engines.hpp"
#include "runtime/event_queue.hpp"
#include "runtime/journal.hpp"
#include "runtime/latency_model.hpp"
#include "runtime/quorum.hpp"
#include "runtime/sharded.hpp"

namespace perfbench {
namespace {

constexpr int kRepeats = 5;        // Cheap probes: median of this many.
constexpr int kCampaignRepeats = 3;  // Probes that run a whole campaign.
constexpr double kKernelSeconds = 0.05;  // Minimum window of a kernel loop.

/// The campaign whose layers are probed: the op's own; for montecarlo,
/// which runs none, the steady campaign at the same seed.
runtime::RuntimeConfig campaign_of(const Workload& w) {
  if (w.kind != Kind::kMonteCarlo) return w.campaign;
  return make_workload("steady", w.seed, w.smoke, w.tmp_dir).campaign;
}

/// The single-supervisor campaign: shard 0's for `sharded` (what each
/// shard's event loop runs), the campaign itself otherwise.
runtime::RuntimeConfig probe_config(const Workload& w,
                                    const runtime::RuntimeConfig& campaign) {
  if (w.kind != Kind::kSharded) return campaign;
  return runtime::ShardedSupervisor(campaign, w.shards).shard_configs()[0];
}

/// Wall time of one steady_clock bracket, subtracted from the per-call
/// queue timings below (each pop_run and each schedule batch is bracketed).
double bracket_overhead_s() {
  constexpr int kPairs = 20000;
  const auto start = Clock::now();
  Clock::time_point sink{};
  for (int i = 0; i < kPairs; ++i) sink = std::max(sink, Clock::now());
  return seconds_since(start) / kPairs;
}

struct Dealt {
  platform::Registry registry;
  std::optional<platform::Scheduler> scheduler;
};

void enroll(const runtime::RuntimeConfig& config,
            platform::Registry& registry) {
  for (std::int64_t i = 0; i < config.honest_participants; ++i) {
    registry.enroll(platform::Principal::kHonest);
  }
  if (config.sybil_identities > 0) registry.enroll_sybils(config.sybil_identities);
}

void probe_core(const Workload& w, Tracer& tracer, Sheet& sheet) {
  const std::int64_t units = w.kind == Kind::kMonteCarlo
                                 ? w.mc_plan.realized.total_assignments()
                                 : w.campaign.plan.total_assignments();
  for (int r = 0; r < kRepeats; ++r) {
    auto span = tracer.scope("core.plan");
    const core::Plan plan = core::make_plan(w.plan_request);
    if (plan.realized.total_assignments() != units) {
      throw std::runtime_error("core.plan: plan is not deterministic");
    }
  }
  sheet.set("core.plan_s", tracer.median_of("core.plan"), "s");
  sheet.set("core.units_planned", static_cast<double>(units), "count");
}

/// Scheduler constructor plus deal, as the supervisor does at start-up.
Dealt probe_deal(const runtime::RuntimeConfig& config, Tracer& tracer,
                 Sheet& sheet) {
  Dealt dealt;
  for (int r = 0; r < kRepeats; ++r) {
    dealt = Dealt{};
    enroll(config, dealt.registry);
    auto engine = rng::make_stream(config.seed, 1);
    auto span = tracer.scope("platform.deal");
    dealt.scheduler.emplace(config.plan);
    dealt.scheduler->deal(dealt.registry, engine);
  }
  sheet.set("platform.deal_s", tracer.median_of("platform.deal"), "s");
  sheet.set("platform.units_dealt",
            static_cast<double>(dealt.scheduler->unit_count()), "count");
  return dealt;
}

void probe_reassign(const runtime::RuntimeConfig& config, Dealt dealt,
                    Tracer& tracer, Sheet& sheet) {
  const auto units = static_cast<std::uint64_t>(dealt.scheduler->unit_count());
  const std::uint64_t calls = std::min<std::uint64_t>(units, 20000);
  auto pick = rng::make_stream(config.seed, 2);
  std::vector<std::size_t> targets(calls);
  for (auto& target : targets) target = static_cast<std::size_t>(pick() % units);
  auto engine = rng::make_stream(config.seed, 3);
  std::int64_t moved = 0;
  {
    auto span = tracer.scope("platform.reassign");
    for (const std::size_t unit : targets) {
      moved += dealt.scheduler->try_reassign_unit(unit, dealt.registry, engine)
                   .has_value();
    }
  }
  if (moved == 0) throw std::runtime_error("platform.reassign: no unit moved");
  sheet.set("platform.reassign_us",
            tracer.median_of("platform.reassign") / static_cast<double>(calls) *
                1e6,
            "us");
  sheet.set("platform.reassign_calls", static_cast<double>(calls), "count");
}

/// Drives a CalendarQueue with the event stream the supervisor's issue loop
/// would make on this workload: every unit issued at t = 0 through the
/// workload's ParticipantPool (completion plus deadline), deadlines that
/// fire on dropped issues re-issue after the RetryPolicy's backoff. Folds,
/// faults and adaptive checks are not modelled.
/// Returns the bulk build time for the residual estimate.
double probe_event_queue(const runtime::RuntimeConfig& config,
                         const Dealt& dealt, Tracer& tracer, Sheet& sheet) {
  using runtime::EventKind;
  const auto& units = dealt.scheduler->units();
  const std::size_t n = units.size();
  const auto tasks = static_cast<std::size_t>(dealt.scheduler->task_count());
  runtime::ParticipantPool pool(config.latency, dealt.registry.size(),
                                config.seed);
  std::vector<double> demand(tasks);
  auto demand_engine = rng::make_stream(config.seed, 4);
  for (double& d : demand) {
    d = rng::exponential(config.latency.mean_service, demand_engine);
  }
  const double deadline =
      config.retry.deadline > 0.0
          ? config.retry.deadline
          : config.latency.network_delay +
                4.0 * config.latency.mean_service *
                    std::max(1.0, static_cast<double>(n) /
                                      static_cast<double>(dealt.registry.size()));

  // The t = 0 set, drawn before any timing.
  struct Pending {
    double time;
    EventKind kind;
    std::int64_t unit;
    std::uint64_t epoch;
  };
  std::vector<Pending> initial;
  initial.reserve(2 * n);
  std::vector<std::uint64_t> epoch(n, 1);
  std::vector<std::int64_t> attempt(n, 1);
  std::vector<std::uint8_t> done(n, 0);
  for (std::size_t u = 0; u < n; ++u) {
    const auto issue = pool.issue(units[u].assignee, 0.0,
                                  demand[static_cast<std::size_t>(units[u].task)],
                                  u, 1);
    if (issue.replies) {
      initial.push_back({issue.completion_time, EventKind::kCompletion,
                         static_cast<std::int64_t>(u), 1});
    }
    initial.push_back({deadline, EventKind::kDeadline,
                       static_cast<std::int64_t>(u), 1});
  }

  std::optional<runtime::CalendarQueue> queue;
  std::vector<runtime::Event> scratch;
  for (int r = 0; r < kCampaignRepeats; ++r) {
    queue.emplace();
    queue->reserve(initial.size());
    auto span = tracer.scope("event_queue.bulk_build");
    for (const Pending& e : initial) {
      queue->schedule(e.time, e.kind, e.unit, e.epoch);
    }
    (void)queue->pop_run(scratch);
  }
  const double bulk_build_s = tracer.median_of("event_queue.bulk_build");
  sheet.set("event_queue.bulk_build_s", bulk_build_s, "s");
  sheet.set("event_queue.bulk_events", static_cast<double>(initial.size()),
            "count");

  // Steady state: pop a run, derive its follow-ups (untimed), schedule them.
  const double overhead = bracket_overhead_s();
  const runtime::RetryPolicy& retry = config.retry;
  std::vector<runtime::Event> run;
  std::vector<Pending> follow;
  double pop_s = 0.0;
  double schedule_s = 0.0;
  std::int64_t popped = 0;
  std::int64_t scheduled = 0;
  {
    auto span = tracer.scope("event_queue.drain");
    while (!queue->empty()) {
      const auto t0 = Clock::now();
      const auto view = queue->pop_run(scratch);
      pop_s += seconds_since(t0) - overhead;
      popped += static_cast<std::int64_t>(view.size());
      run.assign(view.begin(), view.end());
      follow.clear();
      for (const runtime::Event& e : run) {
        const auto u = static_cast<std::size_t>(e.subject);
        if (done[u] != 0 || e.epoch != epoch[u]) continue;  // Stale timer.
        if (e.kind == EventKind::kCompletion) {
          done[u] = 1;
        } else if (e.kind == EventKind::kDeadline) {
          if (attempt[u] > retry.max_retries) {
            done[u] = 1;  // The supervisor recomputes it.
            continue;
          }
          const double backoff = std::max(
              retry.backoff_base *
                  std::pow(retry.backoff_factor,
                           static_cast<double>(attempt[u] - 1)),
              runtime::RetryPolicy::kMinReissueDelay);
          follow.push_back({e.time + backoff, EventKind::kReissue, e.subject,
                            epoch[u]});
        } else {
          attempt[u] += 1;
          epoch[u] += 1;
          const auto issue =
              pool.issue(units[u].assignee, e.time,
                         demand[static_cast<std::size_t>(units[u].task)], u,
                         attempt[u]);
          if (issue.replies) {
            follow.push_back({issue.completion_time, EventKind::kCompletion,
                              e.subject, epoch[u]});
          }
          follow.push_back({e.time + deadline, EventKind::kDeadline, e.subject,
                            epoch[u]});
        }
      }
      if (follow.empty()) continue;
      const auto t1 = Clock::now();
      for (const Pending& f : follow) {
        queue->schedule(f.time, f.kind, f.unit, f.epoch);
      }
      schedule_s += seconds_since(t1) - overhead;
      scheduled += static_cast<std::int64_t>(follow.size());
    }
  }
  sheet.set("event_queue.pop_ns",
            popped > 0 ? std::max(0.0, pop_s) / static_cast<double>(popped) * 1e9
                       : 0.0,
            "ns");
  sheet.set("event_queue.events_popped", static_cast<double>(popped), "count");
  sheet.set("event_queue.schedule_ns",
            scheduled > 0
                ? std::max(0.0, schedule_s) / static_cast<double>(scheduled) * 1e9
                : 0.0,
            "ns");
  sheet.set("event_queue.events_scheduled", static_cast<double>(scheduled),
            "count");
  return bulk_build_s;
}

/// tally_packed over every task of the deal, each copy voting the task's
/// truth unless a sybil identity holds it (colluders agree on one wrong
/// value): the plan's multiplicity mix at this workload's cheat rate.
void probe_quorum(const Dealt& dealt, Tracer& tracer, Sheet& sheet) {
  const auto tasks = static_cast<std::size_t>(dealt.scheduler->task_count());
  std::vector<std::vector<std::uint64_t>> votes(tasks);
  for (const auto& unit : dealt.scheduler->units()) {
    const auto t = static_cast<std::uint64_t>(unit.task);
    const std::uint64_t truth = t * 0x9E3779B97F4A7C15ULL + 1;
    const bool cheats = dealt.registry.record(unit.assignee).principal ==
                        platform::Principal::kAdversary;
    votes[static_cast<std::size_t>(t)].push_back(cheats ? ~truth : truth);
  }
  std::vector<std::uint64_t> flat;
  std::vector<std::uint32_t> begin;
  std::vector<int> lanes;
  for (const auto& task : votes) {
    if (task.empty() || task.size() > runtime::kMaxPackedQuorum) continue;
    begin.push_back(static_cast<std::uint32_t>(flat.size()));
    lanes.push_back(static_cast<int>(task.size()));
    flat.insert(flat.end(), task.begin(), task.end());
  }
  std::int64_t tallies = 0;
  std::uint64_t sink = 0;
  {
    auto span = tracer.scope("quorum.tally");
    do {
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        const std::uint64_t present =
            lanes[i] == 64 ? ~0ULL : (1ULL << lanes[i]) - 1;
        const auto tally =
            runtime::tally_packed(flat.data() + begin[i], present, lanes[i]);
        sink += tally.winner + static_cast<std::uint64_t>(tally.best_count);
      }
      tallies += static_cast<std::int64_t>(lanes.size());
    } while (span.elapsed() < kKernelSeconds);
  }
  if (sink == 0) throw std::runtime_error("quorum.tally: empty tally");
  sheet.set("quorum.tally_ns",
            tracer.median_of("quorum.tally") / static_cast<double>(tallies) * 1e9,
            "ns");
  sheet.set("quorum.tallies", static_cast<double>(tallies), "count");
}

/// One dropout coin per dealt unit, as ParticipantPool primes them.
void probe_coins(const runtime::RuntimeConfig& config, std::size_t units,
                 Tracer& tracer, Sheet& sheet) {
  std::vector<std::uint64_t> draws(units);
  std::vector<std::uint8_t> coins(units);
  std::int64_t total = 0;
  std::uint64_t base = 0;
  {
    auto span = tracer.scope("rng.coin");
    do {
      rng::bulk_first_bernoulli_strided(config.latency.dropout_probability,
                                        config.seed, base, 1, units,
                                        draws.data(), coins.data());
      base += units;
      total += static_cast<std::int64_t>(units);
    } while (span.elapsed() < kKernelSeconds);
  }
  sheet.set("rng.coin_ns",
            tracer.median_of("rng.coin") / static_cast<double>(total) * 1e9, "ns");
  sheet.set("rng.coins", static_cast<double>(total), "count");
}

runtime::RuntimeReport probe_supervisor(const runtime::RuntimeConfig& config,
                                        double deal_s, double bulk_build_s,
                                        Tracer& tracer, Sheet& sheet) {
  runtime::RuntimeReport report;
  for (int r = 0; r < kCampaignRepeats; ++r) {
    auto span = tracer.scope("supervisor.campaign");
    report = runtime::run_async_campaign(config);
  }
  const double campaign_s = tracer.median_of("supervisor.campaign");
  const auto count = [&](const char* name, std::int64_t value) {
    sheet.set(name, static_cast<double>(value), "count");
  };
  sheet.set("supervisor.campaign_s", campaign_s, "s");
  count("supervisor.events", report.events_processed);
  count("supervisor.units_issued", report.units_issued);
  count("supervisor.units_reissued", report.units_reissued);
  count("supervisor.units_timed_out", report.units_timed_out);
  count("supervisor.late_results", report.late_results);
  count("supervisor.replicas", report.adaptive_replicas + report.quorum_replicas);
  count("supervisor.recomputes", report.supervisor_recomputes);
  sheet.set("supervisor.useful_issue_ratio",
            report.units_issued > 0
                ? static_cast<double>(report.units_planned) /
                      static_cast<double>(report.units_issued)
                : 0.0,
            "ratio");
  // An estimate from the isolated probes above, not a self time.
  sheet.set("supervisor.residual_s", campaign_s - deal_s - bulk_build_s, "s");
  return report;
}

/// Capped run at half the campaign's events with and without the default
/// journal, read_journal on what the kill left, and the resume.
void probe_journal(const Workload& w, const runtime::RuntimeConfig& config,
                   std::int64_t events, Tracer& tracer, Sheet& sheet) {
  const std::string path = journal_path(w, "probe");
  const runtime::RuntimeConfig journaled = with_journal(config, path);
  const std::int64_t cap = events / 2;
  runtime::JournalContents contents;
  std::uintmax_t bytes_at_kill = 0;
  std::uintmax_t bytes_at_end = 0;
  for (int r = 0; r < kCampaignRepeats; ++r) {
    std::filesystem::remove(path);
    {
      auto span = tracer.scope("checkpoint.capped");
      if (runtime::run_async_campaign_capped(journaled, cap).has_value()) {
        throw std::runtime_error("journal probe: campaign ended before the cap");
      }
    }
    {
      auto span = tracer.scope("checkpoint.capped_nojournal");
      (void)runtime::run_async_campaign_capped(config, cap);
    }
    bytes_at_kill = std::filesystem::file_size(path);
    {
      auto span = tracer.scope("journal.read");
      contents = runtime::read_journal(path);
    }
    {
      auto span = tracer.scope("journal.resume");
      (void)runtime::resume_async_campaign(journaled);
    }
    bytes_at_end = std::filesystem::file_size(path);
  }
  std::filesystem::remove(path);
  const double capped_s = tracer.median_of("checkpoint.capped");
  const double read_s = tracer.median_of("journal.read");
  const double resume_s = tracer.median_of("journal.resume");
  sheet.set("checkpoint.capped_s", capped_s, "s");
  sheet.set("checkpoint.overhead_s",
            capped_s - tracer.median_of("checkpoint.capped_nojournal"), "s");
  sheet.set("journal.bytes", static_cast<double>(bytes_at_kill), "B");
  sheet.set("journal.checkpoint_records",
            static_cast<double>((contents.has_checkpoint ? 1 : 0) +
                                contents.deltas.size()),
            "count");
  sheet.set("journal.wal_records", static_cast<double>(contents.tail.size()),
            "count");
  sheet.set("journal.read_s", read_s, "s");
  sheet.set("journal.resume_s_p50", resume_s, "s");
  sheet.set("journal.replay_s", resume_s - read_s, "s");
  sheet.set("journal.bytes_per_event",
            static_cast<double>(bytes_at_end) / static_cast<double>(events),
            "B/event");
}

/// The workload's campaign split 8 ways: the split, each shard alone on
/// this thread, and the merge.
void probe_sharded(const Workload& w, const runtime::RuntimeConfig& campaign,
                   Tracer& tracer, Sheet& sheet) {
  const std::int64_t shards = w.kind == Kind::kSharded ? w.shards : 8;
  std::optional<runtime::ShardedSupervisor> split;
  for (int r = 0; r < kRepeats; ++r) {
    auto span = tracer.scope("sharded.split");
    split.emplace(campaign, shards);
  }
  std::vector<runtime::RuntimeReport> reports;
  std::vector<double> shard_s;
  for (const auto& config : split->shard_configs()) {
    auto span = tracer.scope("sharded.shard");
    reports.push_back(runtime::run_async_campaign(config));
    shard_s.push_back(span.elapsed());
  }
  for (int r = 0; r < kRepeats; ++r) {
    auto span = tracer.scope("sharded.merge");
    (void)runtime::ShardedSupervisor::merge(reports);
  }
  sheet.set("sharded.split_s", tracer.median_of("sharded.split"), "s");
  sheet.set("sharded.shard_s_max",
            *std::max_element(shard_s.begin(), shard_s.end()), "s");
  sheet.set("sharded.shard_s_min",
            *std::min_element(shard_s.begin(), shard_s.end()), "s");
  sheet.set("sharded.merge_s", tracer.median_of("sharded.merge"), "s");
  sheet.set("sharded.shards", static_cast<double>(split->shard_count()), "count");
}

/// run_replica_into on one thread. Returns seconds per replica.
double probe_sim(const Workload& w, const runtime::RuntimeConfig& config,
                 Tracer& tracer, Sheet& sheet) {
  sim::Workload workload = w.mc_workload;
  sim::AdversaryConfig adversary = w.adversary;
  if (w.kind != Kind::kMonteCarlo) {
    workload = sim::Workload(config.plan);
    adversary = {.proportion = static_cast<double>(config.sybil_identities) /
                               static_cast<double>(config.honest_participants +
                                                   config.sybil_identities),
                 .strategy = config.strategy};
  }
  auto engine = rng::make_stream(w.seed, 5);
  sim::ReplicaScratch scratch;
  sim::ReplicaResult result;
  {
    auto span = tracer.scope("sim.replicas");
    do {
      sim::run_replica_into(result, workload, adversary, engine,
                            sim::Allocation::kClassAggregated, scratch);
    } while (span.elapsed() < 4 * kKernelSeconds);
  }
  const auto replicas = static_cast<double>(result.replicas);
  const double per_replica = tracer.median_of("sim.replicas") / replicas;
  sheet.set("sim.replica_us", per_replica * 1e6, "us");
  sheet.set("sim.attempts_per_replica",
            static_cast<double>(result.cheat_attempts) / replicas, "count");
  return per_replica;
}

}  // namespace

void run_probes(const Workload& w, Tracer& tracer,
                double op_p50_s, Sheet& sheet) {
  const runtime::RuntimeConfig campaign = campaign_of(w);
  const runtime::RuntimeConfig config = probe_config(w, campaign);
  probe_core(w, tracer, sheet);
  Dealt dealt = probe_deal(config, tracer, sheet);
  const double deal_s = tracer.median_of("platform.deal");
  probe_quorum(dealt, tracer, sheet);
  probe_coins(config, static_cast<std::size_t>(dealt.scheduler->unit_count()),
              tracer, sheet);
  const double bulk_build_s = probe_event_queue(config, dealt, tracer, sheet);
  probe_reassign(config, std::move(dealt), tracer, sheet);
  const runtime::RuntimeReport report =
      probe_supervisor(config, deal_s, bulk_build_s, tracer, sheet);
  probe_journal(w, config, report.events_processed, tracer, sheet);
  probe_sharded(w, campaign, tracer, sheet);
  const double replica_s = probe_sim(w, config, tracer, sheet);

  for (int r = 0; r < kRepeats; ++r) {
    std::unique_ptr<parallel::ThreadPool> pool;
    auto span = tracer.scope("parallel.pool_start");
    pool = std::make_unique<parallel::ThreadPool>(
        parallel::available_parallelism());
  }
  sheet.set("parallel.pool_start_s", tracer.median_of("parallel.pool_start"),
            "s");
  // nproc-thread op rate / one-thread op rate. sharded: the pool-of-1
  // reference runs of the same variants; montecarlo: replicas x the
  // one-thread replica time. The other workloads run each op on one
  // thread, so the ratio is 1 by construction.
  double speedup = 1.0;
  if (w.kind == Kind::kSharded) {
    speedup = tracer.median_of("parallel.one_thread_op") / op_p50_s;
  } else if (w.kind == Kind::kMonteCarlo) {
    speedup = static_cast<double>(w.monte_carlo.replicas) * replica_s / op_p50_s;
  }
  sheet.set("parallel.speedup", speedup, "ratio");
}

}  // namespace perfbench
