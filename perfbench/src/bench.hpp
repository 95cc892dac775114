// Shared pieces of the repository benchmark: the workload definitions, the
// in-memory span recorder, and the result sheet the binary prints.
//
// The benchmark drives the library from outside only: every span wraps a
// call this benchmark makes into a module's public API, never code inside
// the library. See perfbench/README.md for the workloads and metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/supervisor.hpp"
#include "sim/adversary.hpp"
#include "sim/monte_carlo.hpp"
#include "sim/workload.hpp"

namespace perfbench {

namespace core = redund::core;
namespace parallel = redund::parallel;
namespace platform = redund::platform;
namespace rng = redund::rng;
namespace runtime = redund::runtime;
namespace sim = redund::sim;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `values` (0 when empty). Takes a copy: callers keep order.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile `pct` in (0, 100] of `values` (0 when empty).
[[nodiscard]] double percentile(std::vector<double> values, double pct);

/// Spans recorded by the benchmark around its own calls into the library.
/// Kept in memory and written out once, when the run ends. A disabled
/// tracer records nothing; scope() then costs one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t op = -1;       ///< Op ordinal the span belongs to, or -1.
    std::int32_t parent = -1;   ///< Index of the enclosing span, or -1.
    double start_s = 0.0;       ///< Seconds since the tracer was made.
    double end_s = 0.0;
  };

  /// RAII span: opens at construction, closes at destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, std::int32_t index) : tracer_(tracer), index_(index) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;
    /// Seconds since the span opened (0 when tracing is off).
    [[nodiscard]] double elapsed() const;

   private:
    Tracer* tracer_;
    std::int32_t index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] Scope scope(const std::string& name, std::int64_t op = -1);
  /// Durations in seconds of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Median duration of the spans called `name` (0 when none).
  [[nodiscard]] double median_of(const std::string& name) const {
    return median(durations(name));
  }
  /// Writes every span as a Chrome trace-event JSON array.
  void write(const std::string& path) const;

 private:
  [[nodiscard]] double now_s() const { return seconds_since(origin_); }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

enum class Kind { kSteady, kChaosResume, kSharded, kMonteCarlo };

/// One workload: its inputs, derived from the seed, and how big it is.
struct Workload {
  Kind kind = Kind::kSteady;
  std::string name;
  std::uint64_t seed = 0;
  bool smoke = false;
  /// The plan the op runs: the campaign's, or the Monte Carlo workload's.
  core::PlanRequest plan_request;
  /// The campaign an op runs (sharded: the unsharded base config), at
  /// variant 0's seed. Empty for montecarlo, which runs none.
  runtime::RuntimeConfig campaign;
  /// Ops cycle through these seeds (campaign or Monte Carlo master seed),
  /// all derived from the workload seed, so one run's medians average over
  /// several inputs instead of resting on one draw of the fleet.
  std::vector<std::uint64_t> variant_seeds;
  std::int64_t shards = 1;
  /// Monte Carlo op (montecarlo only).
  core::Plan mc_plan;
  sim::Workload mc_workload;
  sim::AdversaryConfig adversary;
  sim::MonteCarloConfig monte_carlo;
  /// Fixed tail percentile of op wall time, chosen so a run at the
  /// calibration speed has at least ten ops beyond it.
  double tail_pct = 90.0;
  /// Directory for journals (chaos_resume and the journal probes).
  std::string tmp_dir;
};

/// Builds the named workload; `smoke` shrinks every size so a run takes
/// seconds. Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, bool smoke,
                                     const std::string& tmp_dir);

/// The journal path a workload's config uses for `tag`.
[[nodiscard]] std::string journal_path(const Workload& workload,
                                       const std::string& tag);

/// `config` with the default durable journal at `path`, checkpointing once
/// per plan's worth of events.
[[nodiscard]] runtime::RuntimeConfig with_journal(
    const runtime::RuntimeConfig& config, const std::string& path);

/// Results of one benchmark process: metrics by name with units, work
/// counts, sample counts, and every correctness failure.
struct Sheet {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> notes;  ///< Labels (tail percentile, sizes).
  std::int64_t attempted = 0;
  std::vector<std::string> failures;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records one checked op; `failure` empty means it passed.
  void check(const Workload& workload, std::int64_t op,
             const std::string& failure);
};

/// Correctness reference of one variant.
struct Reference {
  std::uint64_t fingerprint = 0;  ///< Expected report fingerprint.
  bool known = false;             ///< False until the first report sets it.
  std::int64_t cap_events = 0;    ///< chaos_resume: kill point.
};

/// Everything a live op needs besides the workload (pool, references).
struct OpContext {
  parallel::ThreadPool* pool = nullptr;  ///< sharded and montecarlo.
  std::vector<Reference> references;     ///< One per variant.
};

/// The first fingerprint seen becomes the reference; later ones must match.
/// Returns the failure text, empty when it matched.
[[nodiscard]] std::string check_fingerprint(Reference& reference,
                                            std::uint64_t fingerprint);

/// `w.campaign` at variant `v`'s seed.
[[nodiscard]] runtime::RuntimeConfig variant_campaign(const Workload& w,
                                                      std::size_t v);

/// Sets variant `v`'s reference outside the timing and returns the failure
/// text of its checks (empty when they passed). chaos_resume: the
/// uninterrupted campaign, whose fingerprint resumed ops must reproduce
/// and whose event count fixes the kill point at half. sharded: the same
/// campaign on a pool of one worker, whose merged report the nproc-thread
/// ops must match; its wall time is the span `parallel.one_thread_op`.
/// Other workloads have no reference.
[[nodiscard]] std::string prepare_reference(const Workload& w,
                                            OpContext& context, std::size_t v,
                                            Tracer& tracer);

/// What one op did: items for items_per_s and its correctness verdict.
struct OpResult {
  double items = 0.0;
  std::string failure;  ///< Empty when every check passed.
};

/// Runs one op of `workload` on variant `v`. Spans go to `tracer` (op
/// ordinal `op`).
[[nodiscard]] OpResult run_op(const Workload& workload, OpContext& context,
                              std::size_t v, Tracer& tracer, std::int64_t op);

/// Per-layer probes: isolated calls into each module's public functions on
/// the workload's inputs. `op_p50_s` is the op loop's median.
void run_probes(const Workload& workload, Tracer& tracer, double op_p50_s,
                Sheet& sheet);

}  // namespace perfbench
