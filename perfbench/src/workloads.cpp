// Workload definitions, one op of each, and the small shared helpers.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "bench.hpp"
#include "core/detection.hpp"
#include "rng/engines.hpp"
#include "runtime/audit.hpp"
#include "runtime/fault.hpp"
#include "runtime/sharded.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  if (values.size() % 2 == 1) return *mid;
  const double upper = *mid;
  return 0.5 * (upper + *std::max_element(values.begin(), mid));
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr || index_ < 0) return;
  Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  span.end_s = tracer_->now_s();
  tracer_->open_ = span.parent;
}

double Tracer::Scope::elapsed() const {
  if (tracer_ == nullptr || index_ < 0) return 0.0;
  return tracer_->now_s() -
         tracer_->spans_[static_cast<std::size_t>(index_)].start_s;
}

Tracer::Scope Tracer::scope(const std::string& name, std::int64_t op) {
  if (!enabled_) return Scope(nullptr, -1);
  spans_.push_back(Span{name, op, open_, now_s(), 0.0});
  open_ = static_cast<std::int32_t>(spans_.size() - 1);
  return Scope(this, open_);
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_s >= span.start_s) {
      out.push_back(span.end_s - span.start_s);
    }
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("[\n", file);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld,"
                 "\"parent\":%d}}%s\n",
                 span.name.c_str(), span.start_s * 1e6,
                 (span.end_s - span.start_s) * 1e6,
                 static_cast<long long>(span.op), span.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", file);
  if (std::fclose(file) != 0) throw std::runtime_error("cannot write " + path);
}

void Sheet::check(const Workload& workload, std::int64_t op,
                  const std::string& failure) {
  ++attempted;
  if (failure.empty()) return;
  failures.push_back("workload=" + workload.name + " op=" +
                     std::to_string(op) + " check=" + failure);
}

namespace {

std::int64_t scaled(std::int64_t n, double factor, std::int64_t floor) {
  return std::max(floor, static_cast<std::int64_t>(
                             std::llround(static_cast<double>(n) * factor)));
}

/// The campaign of the `steady` workload at `scale` x its tasks and fleet.
/// Tasks and identities scale together, so queue depth per identity,
/// deadlines and sim-time makespan keep their shape at every scale.
runtime::RuntimeConfig campaign_config(const core::RealizedPlan& plan,
                                       double scale, std::int64_t min_honest,
                                       std::uint64_t seed) {
  runtime::RuntimeConfig config;
  config.plan = plan;
  config.honest_participants = scaled(512, scale, min_honest);
  config.sybil_identities = scaled(27, scale, 2);
  config.strategy = sim::CheatStrategy::kAlwaysCheat;
  config.latency.dropout_probability = 0.01;
  config.latency.speed_sigma = 0.25;
  config.latency.straggler_fraction = 0.05;
  config.seed = seed;
  return config;
}

/// The five-fault chaos schedule of the library's own perf suite: dropout
/// burst, message loss, duplication, a 25% blackout, corruption.
void add_chaos(runtime::RuntimeConfig& config) {
  using runtime::FaultKind;
  auto& events = config.faults.events;
  events.push_back({.time = 2.0, .kind = FaultKind::kDropoutBurst,
                    .duration = 15.0, .probability = 0.2});
  events.push_back({.time = 3.0, .kind = FaultKind::kMessageLoss,
                    .duration = 15.0, .probability = 0.1});
  events.push_back({.time = 4.0, .kind = FaultKind::kDuplication,
                    .duration = 15.0, .probability = 0.1});
  events.push_back({.time = 5.0, .kind = FaultKind::kBlackout,
                    .fraction = 0.25, .duration = 10.0});
  events.push_back({.time = 6.0, .kind = FaultKind::kCorruption,
                    .duration = 10.0, .probability = 0.05});
}

// Calibrated sizes (see README.md): each op is short enough that a run
// of the benchmark's window holds enough ops for its tail percentile.
constexpr std::int64_t kCampaignTasks = 144000;
constexpr double kSteadyScale = 0.5;
constexpr double kChaosScale = 0.15;
constexpr double kShardedScale = 4.0 * 0.5;
constexpr std::int64_t kMonteCarloTasks = 1000000;
constexpr std::int64_t kMonteCarloReplicas = 16000;
constexpr std::uint64_t kVariants = 8;
constexpr double kSmokeTasks = 0.02;

std::string check_campaign(const runtime::RuntimeReport& report) {
  if (report.outcome != runtime::CampaignOutcome::kCompleted) {
    return std::string("outcome: ") + runtime::to_string(report.outcome);
  }
  if (report.tasks_valid != report.tasks) {
    return "tasks_valid " + std::to_string(report.tasks_valid) +
           " != tasks " + std::to_string(report.tasks);
  }
  return {};
}

/// Prop 3: for Balanced at level eps against a share p, P_{k,p} =
/// 1 - (1 - eps)^(1 - p) for every k. A realized plan is finite (integer
/// counts, a tail partition, ringers), so its exact P_{k,p} (Section 5,
/// core::detection_probability) sits slightly off that asymptote, by
/// 6e-4 at k = 3 for N = 10^6 — about one standard error of one op. The
/// observed P_{k,p}, k = 1..3, must lie within 4 standard errors of Prop 3
/// plus that computed finite-plan offset.
std::string check_prop3(const sim::ReplicaResult& result,
                        const core::Plan& plan, double p) {
  const double expected = 1.0 - std::pow(1.0 - plan.epsilon, 1.0 - p);
  const core::Distribution exact = plan.realized.as_distribution();
  for (std::int64_t k = 1; k <= 3; ++k) {
    const auto index = static_cast<std::size_t>(k);
    if (index >= result.attempts_by_held.size() ||
        result.attempts_by_held[index] == 0) {
      return "P_" + std::to_string(k) + ": no attempts";
    }
    const double n = static_cast<double>(result.attempts_by_held[index]);
    const double observed = result.detection_rate_at(k);
    const double se = std::sqrt(expected * (1.0 - expected) / n);
    const double offset =
        std::abs(core::detection_probability(exact, k, p) - expected);
    if (std::abs(observed - expected) > 4.0 * se + offset) {
      char text[160];
      std::snprintf(text, sizeof text,
                    "P_%lld = %.6f outside 4 SE (%.2e) + finite-plan offset "
                    "(%.2e) of Prop 3's %.6f",
                    static_cast<long long>(k), observed, se, offset, expected);
      return text;
    }
  }
  return {};
}

}  // namespace

std::string check_fingerprint(Reference& reference, std::uint64_t fp) {
  if (!reference.known) {
    reference.fingerprint = fp;
    reference.known = true;
    return {};
  }
  if (fp == reference.fingerprint) return {};
  char text[96];
  std::snprintf(text, sizeof text, "fingerprint %016llx != reference %016llx",
                static_cast<unsigned long long>(fp),
                static_cast<unsigned long long>(reference.fingerprint));
  return text;
}

runtime::RuntimeConfig variant_campaign(const Workload& w, std::size_t v) {
  runtime::RuntimeConfig config = w.campaign;
  config.seed = w.variant_seeds[v];
  return config;
}

std::string journal_path(const Workload& workload, const std::string& tag) {
  return (std::filesystem::path(workload.tmp_dir) /
          (workload.name + "-" + tag + ".wal"))
      .string();
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke, const std::string& tmp_dir) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.smoke = smoke;
  w.tmp_dir = tmp_dir;
  double scale = kSteadyScale;
  if (name == "steady") {
    w.kind = Kind::kSteady;
  } else if (name == "chaos_resume") {
    w.kind = Kind::kChaosResume;
    scale = kChaosScale;
    w.tail_pct = 75.0;
  } else if (name == "sharded") {
    w.kind = Kind::kSharded;
    scale = kShardedScale;
    w.shards = 8;
  } else if (name == "montecarlo") {
    w.kind = Kind::kMonteCarlo;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  // Smoke runs keep a fleet of 128 honest identities: split 8 ways (the
  // sharded probe), every shard still needs more identities than the
  // plan's top multiplicity.
  const double task_scale = scale * (smoke ? kSmokeTasks : 1.0);
  const std::int64_t min_honest = smoke ? 128 : 32;
  for (std::uint64_t v = 0; v < kVariants; ++v) {
    w.variant_seeds.push_back(rng::make_stream(seed, v)());
  }
  w.plan_request = {.task_count = scaled(kCampaignTasks, task_scale, 200),
                    .epsilon = 0.5,
                    .scheme = core::Scheme::kBalanced};
  if (w.kind == Kind::kMonteCarlo) {
    w.plan_request.task_count =
        scaled(kMonteCarloTasks, smoke ? kSmokeTasks : 1.0, 2000);
    w.mc_plan = core::make_plan(w.plan_request);
    w.mc_workload = sim::Workload(w.mc_plan.realized);
    w.adversary = {.proportion = 0.1,
                   .strategy = sim::CheatStrategy::kAlwaysCheat};
    w.monte_carlo = {
        .replicas = scaled(kMonteCarloReplicas, smoke ? kSmokeTasks : 1.0, 100),
        .master_seed = w.variant_seeds[0]};
    return w;
  }
  const core::Plan plan = core::make_plan(w.plan_request);
  w.campaign = campaign_config(plan.realized, scale, min_honest,
                               w.variant_seeds[0]);
  if (w.kind == Kind::kChaosResume) {
    w.campaign.latency.dropout_probability = 0.1;
    add_chaos(w.campaign);
  }
  return w;
}

runtime::RuntimeConfig with_journal(const runtime::RuntimeConfig& config,
                                    const std::string& path) {
  runtime::RuntimeConfig journaled = config;
  journaled.journal.path = path;
  // One checkpoint per plan's worth of events: a checkpoint serializes the
  // whole unit/task state, so a cadence tied to the plan's size keeps the
  // checkpoint share of the run constant across scales.
  journaled.journal.checkpoint_interval = config.plan.total_assignments();
  return journaled;
}

std::string prepare_reference(const Workload& w, OpContext& context,
                              std::size_t v, Tracer& tracer) {
  Reference& reference = context.references[v];
  if (w.kind == Kind::kChaosResume) {
    const runtime::RuntimeReport report =
        runtime::run_async_campaign(variant_campaign(w, v));
    reference.fingerprint = runtime::report_fingerprint(report);
    reference.known = true;
    reference.cap_events = report.events_processed / 2;
    return check_campaign(report);
  }
  if (w.kind != Kind::kSharded) return {};
  parallel::ThreadPool one(1);
  runtime::RuntimeReport report;
  {
    auto span = tracer.scope("parallel.one_thread_op");
    report = runtime::run_sharded_campaign(variant_campaign(w, v), w.shards, one);
  }
  std::string failure = check_campaign(report);
  if (failure.empty()) {
    failure = check_fingerprint(reference, runtime::report_fingerprint(report));
  }
  return failure.empty() ? failure : "pool-of-1 " + failure;
}

OpResult run_op(const Workload& w, OpContext& context, std::size_t v,
                Tracer& tracer, std::int64_t op) {
  if (w.kind == Kind::kMonteCarlo) {
    sim::MonteCarloConfig config = w.monte_carlo;
    config.master_seed = w.variant_seeds[v];
    sim::ReplicaResult replicas;
    {
      auto span = tracer.scope("op.monte_carlo", op);
      replicas = sim::run_monte_carlo(*context.pool, w.mc_workload,
                                      w.adversary, config);
    }
    return {static_cast<double>(replicas.replicas) *
                static_cast<double>(w.mc_plan.realized.task_count),
            check_prop3(replicas, w.mc_plan, w.adversary.proportion)};
  }
  Reference& reference = context.references[v];
  runtime::RuntimeReport report;
  if (w.kind == Kind::kChaosResume) {
    const runtime::RuntimeConfig config =
        with_journal(variant_campaign(w, v), journal_path(w, "op"));
    std::filesystem::remove(config.journal.path);
    bool finished = false;
    {
      auto span = tracer.scope("op.capped", op);
      finished = runtime::run_async_campaign_capped(config, reference.cap_events)
                     .has_value();
    }
    if (finished) return {0.0, "capped run finished before the kill point"};
    auto span = tracer.scope("op.resume", op);
    report = runtime::resume_async_campaign(config);
  } else if (w.kind == Kind::kSharded) {
    auto span = tracer.scope("op.sharded", op);
    report = runtime::run_sharded_campaign(variant_campaign(w, v), w.shards,
                                           *context.pool);
  } else {
    auto span = tracer.scope("op.campaign", op);
    report = runtime::run_async_campaign(variant_campaign(w, v));
  }
  std::string failure = check_campaign(report);
  if (failure.empty()) {
    failure = check_fingerprint(reference, runtime::report_fingerprint(report));
  }
  return {static_cast<double>(report.events_processed), failure};
}

}  // namespace perfbench
